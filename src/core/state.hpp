// Agent state representation (paper §1.3).
//
// The paper's convention: the state space of an agent is the Cartesian
// product of boolean *state variables*. We pack up to 64 variables into one
// machine word; a VarSpace interns variable names to bit positions. All
// protocols and threads that are composed together must share one VarSpace
// (composition = union of rulesets over the shared variable pool, §1.3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"

namespace popproto {

/// Index of a boolean state variable (bit position in State).
using VarId = std::uint8_t;

/// Packed agent state: bit v is the value of variable v.
using State = std::uint64_t;

inline constexpr std::size_t kMaxVars = 64;

inline constexpr State var_bit(VarId v) { return State{1} << v; }
inline constexpr bool var_is_set(State s, VarId v) { return (s >> v) & 1; }

/// Registry of named boolean state variables shared by composed protocols.
class VarSpace {
 public:
  /// Intern a variable name; returns the existing id when already present.
  VarId intern(const std::string& name) {
    if (auto it = ids_.find(name); it != ids_.end()) return it->second;
    POPPROTO_CHECK_MSG(names_.size() < kMaxVars, "VarSpace full (64 vars)");
    const VarId id = static_cast<VarId>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  std::optional<VarId> find(const std::string& name) const {
    if (auto it = ids_.find(name); it != ids_.end()) return it->second;
    return std::nullopt;
  }

  /// The id of a variable that must already be interned (checked).
  VarId at(const std::string& name) const {
    const auto v = find(name);
    POPPROTO_CHECK_MSG(v.has_value(), "variable not interned");
    return *v;
  }

  const std::string& name(VarId v) const {
    POPPROTO_CHECK(v < names_.size());
    return names_[v];
  }

  std::size_t size() const { return names_.size(); }

  /// Render a state as "{A, C, F}" for debugging.
  std::string describe(State s) const {
    std::string out = "{";
    bool first = true;
    for (std::size_t v = 0; v < names_.size(); ++v) {
      if (var_is_set(s, static_cast<VarId>(v))) {
        if (!first) out += ", ";
        out += names_[v];
        first = false;
      }
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, VarId> ids_;
};

using VarSpacePtr = std::shared_ptr<VarSpace>;

inline VarSpacePtr make_var_space() { return std::make_shared<VarSpace>(); }

}  // namespace popproto
