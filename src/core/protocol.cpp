#include "core/protocol.hpp"

namespace popproto {

std::size_t Protocol::add_thread(std::string name, std::vector<Rule> rules) {
  threads_.push_back(ProtoThread{std::move(name), std::move(rules)});
  return threads_.size() - 1;
}

void Protocol::extend_thread(std::size_t index, std::vector<Rule> rules) {
  POPPROTO_CHECK(index < threads_.size());
  auto& dst = threads_[index].rules;
  dst.insert(dst.end(), std::make_move_iterator(rules.begin()),
             std::make_move_iterator(rules.end()));
}

void Protocol::compose(const Protocol& other) {
  POPPROTO_CHECK_MSG(vars_.get() == other.vars_.get(),
                     "composed protocols must share one VarSpace");
  for (const auto& t : other.threads_)
    threads_.push_back(ProtoThread{other.name_ + "." + t.name, t.rules});
}

std::size_t Protocol::num_rules() const {
  std::size_t n = 0;
  for (const auto& t : threads_) n += t.rules.size();
  return n;
}

State Protocol::write_set() const {
  State w = 0;
  for (const auto& t : threads_)
    for (const auto& r : t.rules) w |= r.write_set();
  return w;
}

}  // namespace popproto
