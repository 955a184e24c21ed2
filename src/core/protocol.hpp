// Protocols and their threads (paper §1.3, §2.2).
//
// A protocol is a collection of named threads over a shared VarSpace; each
// thread is a ruleset. Following §2.2, the scheduler has each interacting
// pair pick a thread u.a.r. and then a rule of that thread u.a.r. (this is
// the paper's rule-count padding convention, implemented exactly instead of
// by literally copying rules).
//
// A thread may instead be a pair kernel: a function from the ordered state
// pair to a short list of weighted (initiator', responder') outcomes. It is
// for dynamics that apply every matching update per interaction (the §5.2
// oscillator and base clock), which a one-rule-per-interaction ruleset can
// only dilute. The scheduler treats a kernel thread as one slot.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/rule.hpp"
#include "core/state.hpp"

namespace popproto {

/// One branch of a pair kernel: with `probability`, the ordered pair
/// becomes (initiator, responder).
struct KernelOutcome {
  double probability;
  State initiator;
  State responder;
};

struct PairKernel {
  /// Appends the outcome list of the ordered pair (a, b) to `out`, in a
  /// fixed order. Probabilities sum to at most 1 (+1e-12 slack); the rest
  /// is a no-op. Must be a pure function of (a, b).
  std::function<void(State a, State b, std::vector<KernelOutcome>& out)>
      outcomes;
  /// Names the kernel and every parameter its law depends on; the snapshot
  /// fingerprint hashes it, so a restore under other parameters is refused.
  std::string signature;
};

struct ProtoThread {
  std::string name;
  std::vector<Rule> rules;
  /// Set on a pair-kernel thread, which holds no rules.
  PairKernel kernel;
  bool is_kernel() const { return static_cast<bool>(kernel.outcomes); }
};

class Protocol {
 public:
  Protocol(std::string name, VarSpacePtr vars)
      : name_(std::move(name)), vars_(std::move(vars)) {
    POPPROTO_CHECK(vars_ != nullptr);
  }

  /// Add a thread; returns its index.
  std::size_t add_thread(std::string name, std::vector<Rule> rules);

  /// Add a pair-kernel thread (non-empty signature); returns its index.
  std::size_t add_kernel_thread(std::string name, PairKernel kernel);

  const std::string& name() const { return name_; }
  const VarSpacePtr& vars() const { return vars_; }
  const std::vector<ProtoThread>& threads() const { return threads_; }
  /// Scheduler slots over all threads: every rule, and one per kernel
  /// thread.
  std::size_t num_rules() const;

 private:
  std::string name_;
  VarSpacePtr vars_;
  std::vector<ProtoThread> threads_;
};

}  // namespace popproto
