// The name → factory table behind both plug-in points: mitigation
// policies (core::PolicyRegistry) and device-aging models
// (aging::AgingModelRegistry). Scenario JSON, sweep axes and the example
// CLIs select an entry by name, and extensions add() new names without
// touching any layer that looks names up.
//
// Each registry is the template instantiated over its factory type. Its
// process-wide instance() is an explicit specialisation defined next to
// the built-in factories it registers (core/policy_engine.cpp,
// aging/model_registry.cpp) and declared in the header that names the
// factory type.
#pragma once

#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace dnnlife::util {

/// Thread-safe, append-only name → Factory table; names() lists entries in
/// registration order. `noun` names what the factories make ("policy
/// engine", "aging model") in every diagnostic.
template <class Factory>
class Registry {
 public:
  using Entries = std::vector<std::pair<std::string, Factory>>;

  /// The process-wide registry of this factory type, built-ins first.
  static Registry& instance();

  /// A registry holding `builtins` under add()'s checks, in order.
  Registry(std::string noun, Entries builtins) : noun_(std::move(noun)) {
    for (auto& [name, factory] : builtins) add(name, std::move(factory));
  }

  /// Register `factory` under `name`. Throws std::invalid_argument on an
  /// empty name, a null factory or a name already registered.
  void add(const std::string& name, Factory factory) {
    DNNLIFE_EXPECTS(!name.empty(), noun_ + " name must not be empty");
    DNNLIFE_EXPECTS(factory != nullptr, noun_ + " factory must not be null");
    const std::lock_guard<std::mutex> lock(mutex_);
    DNNLIFE_EXPECTS(find(name) == nullptr,
                    noun_ + " '" + name + "' is already registered");
    entries_.emplace_back(name, std::move(factory));
  }

  bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return find(name) != nullptr;
  }

  std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, _] : entries_) names.push_back(name);
    return names;
  }

  /// A copy of the factory registered under `name`, to be called outside
  /// the lock. An unknown name throws std::invalid_argument
  /// "no <noun> registered under '<name>' (registered: a, b, ...)", the
  /// list read under the same lock as the lookup.
  Factory at(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const Factory* factory = find(name)) return *factory;
    std::string known;
    for (const auto& [registered, _] : entries_)
      known += (known.empty() ? "" : ", ") + registered;
    throw std::invalid_argument("no " + noun_ + " registered under '" + name +
                                "' (registered: " + known + ")");
  }

 private:
  /// The factory under `name`, or nullptr. Caller holds mutex_.
  const Factory* find(const std::string& name) const {
    for (const auto& [registered, factory] : entries_)
      if (registered == name) return &factory;
    return nullptr;
  }

  const std::string noun_;
  mutable std::mutex mutex_;
  Entries entries_;
};

}  // namespace dnnlife::util
