// Protocols, threads, and protocol composition (paper §1.3, §2.2).
//
// A protocol is a collection of named threads over a shared VarSpace; each
// thread is a ruleset. Following §2.2, the scheduler has each interacting
// pair pick a thread u.a.r. and then a rule of that thread u.a.r. (this is
// the paper's rule-count padding convention, implemented exactly instead of
// by literally copying rules).
#pragma once

#include <string>
#include <vector>

#include "core/rule.hpp"
#include "core/state.hpp"

namespace popproto {

struct ProtoThread {
  std::string name;
  std::vector<Rule> rules;
};

class Protocol {
 public:
  Protocol(std::string name, VarSpacePtr vars)
      : name_(std::move(name)), vars_(std::move(vars)) {
    POPPROTO_CHECK(vars_ != nullptr);
  }

  /// Add a thread; returns its index.
  std::size_t add_thread(std::string name, std::vector<Rule> rules);

  /// Append rules to an existing thread.
  void extend_thread(std::size_t index, std::vector<Rule> rules);

  /// Compose `other` into this protocol as additional threads. Both must
  /// share the same VarSpace object (union of rulesets over one variable
  /// pool, §1.3).
  void compose(const Protocol& other);

  const std::string& name() const { return name_; }
  const VarSpacePtr& vars() const { return vars_; }
  VarSpace& var_space() { return *vars_; }
  const std::vector<ProtoThread>& threads() const { return threads_; }
  std::size_t num_rules() const;

  /// Union of variables any rule may modify.
  State write_set() const;

 private:
  std::string name_;
  VarSpacePtr vars_;
  std::vector<ProtoThread> threads_;
};

}  // namespace popproto
