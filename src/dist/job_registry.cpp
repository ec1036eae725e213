#include "dist/job_registry.h"

namespace grunt::dist {

JobRegistry& JobRegistry::Global() {
  static JobRegistry registry;
  return registry;
}

void JobRegistry::Register(const std::string& kind, JobFn fn) {
  if (Find(kind) != nullptr) {
    throw json::Error("job kind \"" + kind + "\" registered twice");
  }
  entries_.emplace_back(kind, std::move(fn));
}

const JobFn* JobRegistry::Find(const std::string& kind) const {
  for (const auto& [name, fn] : entries_) {
    if (name == kind) return &fn;
  }
  return nullptr;
}

json::Value RunRegisteredJob(const std::string& kind,
                             const json::Value& args, std::uint64_t seed) {
  const JobFn* fn = JobRegistry::Global().Find(kind);
  if (fn == nullptr) {
    throw json::Error("unknown job kind \"" + kind +
                      "\" (never registered?)");
  }
  return (*fn)(args, seed);
}

}  // namespace grunt::dist
