#include "persist/replay_check.hpp"

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "core/sim_backend.hpp"
#include "faults/injector.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "persist/snapshot.hpp"
#include "support/serialize.hpp"

namespace popproto {

namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

/// Everything we compare between the reference and resumed runs.
struct FinalObservation {
  std::vector<std::pair<State, std::uint64_t>> species;
  double rounds = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t active_n = 0;
  EngineCounters counters;
  std::vector<TraceEvent> trace;
  std::string snapshot_bytes;  // second snapshot, taken at the end
  std::vector<FaultInjector::Applied> fault_log;
};

FinalObservation observe(SimBackend& backend, const EventTrace& trace,
                         const FaultInjector* injector) {
  FinalObservation o;
  o.species = backend.species();
  o.rounds = backend.rounds();
  o.interactions = backend.interactions();
  o.active_n = backend.active_n();
  o.counters = backend.counters();
  o.trace = trace.events();
  std::ostringstream snap;
  backend.snapshot(snap);
  o.snapshot_bytes = snap.str();
  if (injector) o.fault_log = injector->log();
  return o;
}

/// Counter equality modulo the cache-warmth diagnostics (see header).
bool counters_match(const EngineCounters& a, const EngineCounters& b) {
  return a.without_cache_warmth() == b.without_cache_warmth();
}

/// Split a serialized snapshot into (tag, payload) pairs. The buffer came
/// from our own SnapshotWriter this process, so this trusts the framing
/// (BinReader still bounds-checks every read).
std::vector<std::pair<std::uint32_t, std::string>> split_sections(
    const std::string& bytes) {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  BinReader r(bytes);
  r.u32();  // magic
  r.u32();  // version
  for (;;) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t len = r.u64();
    r.u32();  // crc
    if (len > r.remaining())
      throw SnapshotError(SnapshotErrc::kTruncated,
                          "section payload missing");
    std::string payload;
    payload.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i)
      payload.push_back(static_cast<char>(r.u8()));
    if (tag == static_cast<std::uint32_t>(SnapshotSection::kEnd)) break;
    out.emplace_back(tag, std::move(payload));
  }
  return out;
}

/// Snapshot equality modulo the kCounters section (cache-warmth fields live
/// there). Everything else — population, RNG streams, config, time base —
/// must be byte-identical.
bool snapshots_match(const std::string& a, const std::string& b,
                     std::string* why) {
  const auto sa = split_sections(a);
  const auto sb = split_sections(b);
  if (sa.size() != sb.size()) {
    *why = "final snapshots have different section counts";
    return false;
  }
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].first != sb[i].first) {
      *why = "final snapshots have different section order";
      return false;
    }
    if (sa[i].first == static_cast<std::uint32_t>(SnapshotSection::kCounters))
      continue;
    if (sa[i].second != sb[i].second) {
      *why = "final snapshot section " + std::to_string(sa[i].first) +
             " differs (RNG/population/config drift)";
      return false;
    }
  }
  return true;
}

void compare(const FinalObservation& ref, const FinalObservation& res,
             ReplayCheckResult* out) {
  std::string detail;
  const auto fail = [&detail](const std::string& line) {
    if (!detail.empty()) detail += '\n';
    detail += line;
  };

  if (ref.species != res.species) fail("species vectors diverged");
  if (!bits_equal(ref.rounds, res.rounds))
    fail("parallel time diverged (" + std::to_string(ref.rounds) + " vs " +
         std::to_string(res.rounds) + ")");
  if (ref.interactions != res.interactions)
    fail("interaction totals diverged (" + std::to_string(ref.interactions) +
         " vs " + std::to_string(res.interactions) + ")");
  if (ref.active_n != res.active_n) fail("active population diverged");
  if (!counters_match(ref.counters, res.counters))
    fail("telemetry counters diverged");

  if (ref.trace.size() != res.trace.size()) {
    fail("trace event counts diverged (" + std::to_string(ref.trace.size()) +
         " vs " + std::to_string(res.trace.size()) + ")");
  } else {
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      const TraceEvent& x = ref.trace[i];
      const TraceEvent& y = res.trace[i];
      if (x.kind != y.kind || !bits_equal(x.round, y.round) ||
          !bits_equal(x.value, y.value)) {
        fail("trace event " + std::to_string(i) + " diverged");
        break;
      }
    }
  }

  if (ref.fault_log.size() != res.fault_log.size()) {
    fail("fault logs diverged in length");
  } else {
    for (std::size_t i = 0; i < ref.fault_log.size(); ++i) {
      const auto& x = ref.fault_log[i];
      const auto& y = res.fault_log[i];
      if (x.kind != y.kind || x.affected != y.affected ||
          !bits_equal(x.round, y.round)) {
        fail("fault log entry " + std::to_string(i) + " diverged");
        break;
      }
    }
  }

  std::string snap_why;
  if (!snapshots_match(ref.snapshot_bytes, res.snapshot_bytes, &snap_why))
    fail(snap_why);

  out->ok = detail.empty();
  out->detail = std::move(detail);
}

}  // namespace

ReplayCheckResult replay_check(const BackendFactory& make_backend,
                               double k_rounds) {
  ReplayCheckResult result;

  // Reference: k rounds, snapshot, k more with a trace attached.
  auto ref = make_backend();
  ref->run_rounds(k_rounds);
  std::ostringstream snap;
  ref->snapshot(snap);
  const std::string snapshot = snap.str();
  result.snapshot_rounds = ref->rounds();
  result.snapshot_bytes = snapshot.size();
  EventTrace ref_trace;
  ref->set_event_trace(&ref_trace);
  ref->run_rounds(k_rounds);
  const FinalObservation ref_obs = observe(*ref, ref_trace, nullptr);

  // Resumed: fresh backend, restore, k rounds with a fresh trace.
  auto res = make_backend();
  std::istringstream in(snapshot);
  res->restore(in);
  EventTrace res_trace;
  res->set_event_trace(&res_trace);
  res->run_rounds(k_rounds);
  const FinalObservation res_obs = observe(*res, res_trace, nullptr);

  compare(ref_obs, res_obs, &result);
  return result;
}

ReplayCheckResult replay_check_with_faults(const BackendFactory& make_backend,
                                           double k_rounds,
                                           const FaultPlan& plan,
                                           std::uint64_t fault_seed) {
  ReplayCheckResult result;

  auto ref = make_backend();
  FaultInjector ref_injector(plan, fault_seed);
  ref_injector.attach(*ref);
  ref->run_rounds(k_rounds);
  std::ostringstream esnap, fsnap;
  ref->snapshot(esnap);
  ref_injector.snapshot(fsnap);
  const std::string engine_snapshot = esnap.str();
  const std::string fault_snapshot = fsnap.str();
  result.snapshot_rounds = ref->rounds();
  result.snapshot_bytes = engine_snapshot.size() + fault_snapshot.size();
  EventTrace ref_trace;
  ref->set_event_trace(&ref_trace);
  ref->run_rounds(k_rounds);
  const FinalObservation ref_obs = observe(*ref, ref_trace, &ref_injector);

  // Resumed: the injector's state comes entirely from its snapshot (the
  // construction seed is deliberately different to prove it is unused).
  auto res = make_backend();
  FaultInjector res_injector(plan, fault_seed + 1);
  std::istringstream ein(engine_snapshot);
  res->restore(ein);
  std::istringstream fin(fault_snapshot);
  res_injector.restore(fin, *res);
  EventTrace res_trace;
  res->set_event_trace(&res_trace);
  res->run_rounds(k_rounds);
  const FinalObservation res_obs = observe(*res, res_trace, &res_injector);

  compare(ref_obs, res_obs, &result);
  return result;
}

}  // namespace popproto
