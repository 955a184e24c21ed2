#include "core/protocol.hpp"

namespace popproto {

std::size_t Protocol::add_thread(std::string name, std::vector<Rule> rules) {
  threads_.push_back(ProtoThread{std::move(name), std::move(rules), {}});
  return threads_.size() - 1;
}

std::size_t Protocol::add_kernel_thread(std::string name, PairKernel kernel) {
  POPPROTO_CHECK(kernel.outcomes && !kernel.signature.empty());
  threads_.push_back(ProtoThread{std::move(name), {}, std::move(kernel)});
  return threads_.size() - 1;
}

std::size_t Protocol::num_rules() const {
  std::size_t n = 0;
  for (const auto& t : threads_) n += t.is_kernel() ? 1 : t.rules.size();
  return n;
}

}  // namespace popproto
