// Tests for the popsweep subsystem (src/sweep/): spec parsing and grid
// expansion, manifest journaling integrity (truncation/corruption
// rejection, hexfloat bit-exactness), the crash-tolerant per-job runner,
// and the orchestrator's resume idempotence.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/expr.hpp"
#include "persist/checkpoint.hpp"
#include "server/protocol_registry.hpp"
#include "support/serialize.hpp"
#include "sweep/manifest.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace popproto {
namespace {

const char* kSpecText =
    "# test grid\n"
    "protocol approx_majority phase_clock\n"
    "backend agent count\n"
    "n 256 512\n"
    "seed 1 2\n"
    "max_rounds 8\n"
    "checkpoint_every 2\n";

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  mkdir(dir.c_str(), 0755);
  // Scrub leftovers from a previous run so init_sweep sees a fresh dir.
  std::remove(manifest_path(dir).c_str());
  for (const JobSpec& job : expand_grid(parse_sweep_spec(kSpecText))) {
    std::remove((dir + "/" + job.id + ".ckpt").c_str());
    std::remove((dir + "/" + job.id + ".result").c_str());
  }
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << body;
}

// -- Spec parsing ------------------------------------------------------------

TEST(SweepSpec, ParsesAxesAndDriveConfig) {
  const SweepSpec spec = parse_sweep_spec(kSpecText);
  EXPECT_EQ(spec.protocols,
            (std::vector<std::string>{"approx_majority", "phase_clock"}));
  EXPECT_EQ(spec.backends, (std::vector<std::string>{"agent", "count"}));
  EXPECT_EQ(spec.ns, (std::vector<std::uint64_t>{256, 512}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(spec.threads.empty());
  EXPECT_EQ(spec.max_rounds, 8.0);
  EXPECT_EQ(spec.checkpoint_every, 2.0);
  EXPECT_FALSE(spec.until.has_value());
}

TEST(SweepSpec, ExpandsCartesianGridInSpecOrder) {
  const std::vector<JobSpec> jobs = expand_grid(parse_sweep_spec(kSpecText));
  ASSERT_EQ(jobs.size(), 16u);
  EXPECT_EQ(jobs[0].id, "approx_majority-agent-n256-s1");
  EXPECT_EQ(jobs[1].id, "approx_majority-agent-n256-s2");
  EXPECT_EQ(jobs[2].id, "approx_majority-agent-n512-s1");
  EXPECT_EQ(jobs[4].id, "approx_majority-count-n256-s1");
  EXPECT_EQ(jobs[8].id, "phase_clock-agent-n256-s1");
  EXPECT_EQ(jobs[15].id, "phase_clock-count-n512-s2");
  EXPECT_EQ(jobs[15].threads, 0u);  // no threads axis -> substrate default
}

TEST(SweepSpec, ThreadsAxisIsInnermostAndInTheId) {
  const SweepSpec spec = parse_sweep_spec(
      "protocol phase_clock\nbackend batch\nn 256\nseed 1\n"
      "threads 1 2\nmax_rounds 4\n");
  const std::vector<JobSpec> jobs = expand_grid(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "phase_clock-batch-n256-s1-t1");
  EXPECT_EQ(jobs[1].id, "phase_clock-batch-n256-s1-t2");
  EXPECT_EQ(jobs[1].threads, 2u);
}

TEST(SweepSpec, ParsesUntilWithComparatorAndAll) {
  const SweepSpec spec = parse_sweep_spec(
      "protocol approx_majority\nbackend count\nn 256\nseed 1\n"
      "max_rounds 4\nuntil BA & !BB == all\n");
  ASSERT_TRUE(spec.until.has_value());
  EXPECT_EQ(spec.until->expr, "BA & !BB");
  EXPECT_EQ(spec.until->cmp, CountPredicate::Cmp::kEq);
  EXPECT_TRUE(spec.until->all);
}

TEST(SweepSpec, BareUntilDefaultsToAtLeastOne) {
  const SweepSpec spec = parse_sweep_spec(
      "protocol approx_majority\nbackend count\nn 256\nseed 1\n"
      "max_rounds 4\nuntil BB\n");
  ASSERT_TRUE(spec.until.has_value());
  EXPECT_EQ(spec.until->expr, "BB");
  EXPECT_EQ(spec.until->cmp, CountPredicate::Cmp::kGe);
  EXPECT_EQ(spec.until->count, 1u);
  EXPECT_FALSE(spec.until->all);
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  // Missing required keys.
  EXPECT_THROW(parse_sweep_spec("protocol p\nbackend b\nn 4\nseed 1\n"),
               SpecError);
  EXPECT_THROW(parse_sweep_spec("backend b\nn 4\nseed 1\nmax_rounds 4\n"),
               SpecError);
  // Duplicate axis values would collide on job ids.
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 4 4\nseed 1\nmax_rounds 4\n"),
      SpecError);
  // Unsafe names cannot become checkpoint file paths.
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol ../evil\nbackend b\nn 4\nseed 1\nmax_rounds 4\n"),
      SpecError);
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 1\nseed 1\nmax_rounds 4\n"),
      SpecError);  // n < 2
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 4\nseed 1\nmax_rounds 4\nbogus 1\n"),
      SpecError);  // unknown key
  // A job without `until` runs to its horizon, which must therefore end.
  EXPECT_THROW(
      parse_sweep_spec("protocol p\nbackend b\nn 4\nseed 1\nmax_rounds inf\n"),
      SpecError);
  // The shared predicate and fault-line parsers' errors name the line.
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 4\nseed 1\nmax_rounds 4\nuntil BA >= x\n"),
      SpecError);
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 4\nseed 1\nmax_rounds 4\nuntil == all\n"),
      SpecError);
  EXPECT_THROW(
      parse_sweep_spec(
          "protocol p\nbackend b\nn 4\nseed 1\nmax_rounds 4\nfault crash 1\n"),
      SpecError);
}

// -- parse_bool_expr (core/expr, shared with popprotod) ----------------------

TEST(SweepExpr, ParseBoolExprAcceptsTheDaemonGrammar) {
  auto inst = make_protocol_instance("approx_majority", 64);
  ASSERT_NE(inst, nullptr);
  EXPECT_NO_THROW(parse_bool_expr("BA & !BB", *inst->vars));
  EXPECT_NO_THROW(parse_bool_expr("BA && (BB || !BA)", *inst->vars));
  EXPECT_THROW(parse_bool_expr("NOPE", *inst->vars), ExprParseError);
  EXPECT_THROW(parse_bool_expr("BA &", *inst->vars), ExprParseError);
  EXPECT_THROW(parse_bool_expr("BA BB", *inst->vars), ExprParseError);
}

// -- Manifest journaling -----------------------------------------------------

TEST(SweepManifest, RoundTripsStatesAndResultsBitExactly) {
  const std::string dir = temp_dir("sweep_manifest_rt");
  const std::string path = manifest_path(dir);
  Manifest m = Manifest::create(parse_sweep_spec(kSpecText));
  ASSERT_EQ(m.jobs().size(), 16u);

  JobRow& done = m.jobs()[3];
  done.state = JobState::kDone;
  done.attempts = 2;
  done.result.rounds = 0.1 + 0.2;  // not representable: exercises hexfloat
  done.result.interactions = 123456789;
  done.result.converged = true;
  done.result.converged_at = 7.3;
  done.result.species_crc = 0xdeadbeefcafe1234ull;
  done.result.active_n = 512;
  done.result.effective_steps = 98765;
  done.result.wall_seconds = 0.0625;
  done.result.resumed = true;
  m.jobs()[5].state = JobState::kRunning;
  m.jobs()[7].state = JobState::kFailed;
  m.jobs()[7].attempts = 1;
  m.save(path);

  Manifest back = Manifest::load(path);
  ASSERT_EQ(back.jobs().size(), 16u);
  EXPECT_EQ(back.spec_crc(), m.spec_crc());
  EXPECT_EQ(back.jobs()[3].state, JobState::kDone);
  EXPECT_EQ(back.jobs()[3].attempts, 2u);
  EXPECT_TRUE(deterministic_fields_equal(back.jobs()[3].result, done.result));
  EXPECT_EQ(back.jobs()[3].result.wall_seconds, 0.0625);
  EXPECT_TRUE(back.jobs()[3].result.resumed);
  EXPECT_EQ(back.jobs()[5].state, JobState::kRunning);
  EXPECT_EQ(back.jobs()[7].state, JobState::kFailed);
  EXPECT_EQ(back.jobs()[0].state, JobState::kPending);
}

TEST(SweepManifest, RejectsTruncation) {
  const std::string dir = temp_dir("sweep_manifest_trunc");
  const std::string path = manifest_path(dir);
  Manifest::create(parse_sweep_spec(kSpecText)).save(path);
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 40u);

  // Chopping anywhere — inside the trailer or the body — must be rejected.
  write_file(path, full.substr(0, full.size() - 5));
  EXPECT_THROW(Manifest::load(path), ManifestError);
  write_file(path, full.substr(0, full.size() / 2));
  EXPECT_THROW(Manifest::load(path), ManifestError);
  write_file(path, "");
  EXPECT_THROW(Manifest::load(path), ManifestError);

  // And the original still loads (the failure is the content, not the path).
  write_file(path, full);
  EXPECT_NO_THROW(Manifest::load(path));
}

TEST(SweepManifest, RejectsCorruption) {
  const std::string dir = temp_dir("sweep_manifest_corrupt");
  const std::string path = manifest_path(dir);
  Manifest::create(parse_sweep_spec(kSpecText)).save(path);
  std::string full = read_file(path);
  full[full.size() / 2] ^= 0x20;  // flip one bit mid-body
  write_file(path, full);
  EXPECT_THROW(Manifest::load(path), ManifestError);
}

TEST(SweepManifest, RejectsRowsDisagreeingWithTheEmbeddedSpec) {
  const std::string dir = temp_dir("sweep_manifest_rows");
  const std::string path = manifest_path(dir);
  Manifest::create(parse_sweep_spec(kSpecText)).save(path);
  std::string full = read_file(path);
  // Rename a job id and re-trailer: structurally valid, semantically wrong.
  const std::string from = "job approx_majority-agent-n256-s1 ";
  const std::string to = "job approx_majority-agent-n999-s1 ";
  const std::size_t at = full.find(from);
  ASSERT_NE(at, std::string::npos);
  full.replace(at, from.size(), to);
  const std::size_t trailer = full.rfind("end 0x");
  ASSERT_NE(trailer, std::string::npos);
  const std::string body = full.substr(0, trailer);
  char crc_line[32];
  std::snprintf(crc_line, sizeof crc_line, "end 0x%08x\n", crc32(body));
  write_file(path, body + crc_line);
  EXPECT_THROW(Manifest::load(path), ManifestError);
}

TEST(SweepManifest, RejectsNegativeAttempts) {
  // A row whose attempts field reads -1, under a valid trailer: the strict
  // number parser refuses it instead of wrapping it to 2^64 - 1.
  const std::string dir = temp_dir("sweep_manifest_attempts");
  const std::string path = manifest_path(dir);
  Manifest::create(parse_sweep_spec(kSpecText)).save(path);
  std::string full = read_file(path);
  const std::string from = "-n256-s1 pending attempts=0\n";
  const std::size_t at = full.find(from);
  ASSERT_NE(at, std::string::npos);
  full.replace(at, from.size(), "-n256-s1 pending attempts=-1\n");
  const std::string body = full.substr(0, full.rfind("end 0x"));
  char crc_line[32];
  std::snprintf(crc_line, sizeof crc_line, "end 0x%08x\n", crc32(body));
  write_file(path, body + crc_line);
  EXPECT_THROW(Manifest::load(path), ManifestError);
  std::remove(path.c_str());
}

TEST(SweepManifest, ResultFileRoundTripsAndRejectsWrongJob) {
  const std::string dir = temp_dir("sweep_result_rt");
  const std::string path = dir + "/job1.result";
  std::remove(path.c_str());
  JobResult out;
  EXPECT_FALSE(read_result_file(path, "job1", &out));  // missing -> false

  JobResult r;
  r.rounds = 5.0;
  r.interactions = 42;
  r.converged = true;
  r.converged_at = 4.5;
  r.species_crc = 0x1234;
  r.active_n = 256;
  r.effective_steps = 41;
  write_result_file(path, "job1", r);
  ASSERT_TRUE(read_result_file(path, "job1", &out));
  EXPECT_TRUE(deterministic_fields_equal(out, r));
  EXPECT_THROW(read_result_file(path, "job2", &out), ManifestError);
  std::remove(path.c_str());
}

// -- Runner ------------------------------------------------------------------

SweepSpec tiny_spec(const std::string& extra = "") {
  return parse_sweep_spec(
      "protocol approx_majority\nbackend count\nn 256\nseed 7\n"
      "max_rounds 8\ncheckpoint_every 1\n" + extra);
}

TEST(SweepRunner, ResumedJobMatchesUninterruptedBitForBit) {
  const std::string dir = temp_dir("sweep_runner_resume");
  // The second spec crashes agents at round 2, has its dropout window open
  // at the round-4 checkpoint and rejoins everyone at round 5: the resumed
  // half must replay the rest of the schedule exactly.
  const SweepSpec faulted = tiny_spec(
      "fault crash 2 0.1\nfault rejoin 5 all\nfault dropout 3 6 0.2\n");
  ASSERT_EQ(faulted.faults.size(), 3u);
  std::vector<JobResult> references;
  for (const SweepSpec& full : {tiny_spec(), faulted}) {
    SCOPED_TRACE(full.faults.empty() ? "no faults" : "fault schedule");
    SweepSpec half = full;
    half.max_rounds = 4.0;
    const JobSpec job = expand_grid(full)[0];

    // Uninterrupted reference.
    const std::string ref_ckpt = dir + "/ref.ckpt";
    std::remove(ref_ckpt.c_str());
    const JobResult reference = run_one_job(job, full, ref_ckpt);
    EXPECT_FALSE(reference.resumed);
    EXPECT_EQ(reference.rounds, 8.0);

    // Half now (leaves its final checkpoint at round 4), rest later.
    const std::string ckpt = dir + "/job.ckpt";
    std::remove(ckpt.c_str());
    const JobResult first = run_one_job(job, half, ckpt);
    EXPECT_EQ(first.rounds, 4.0);
    const JobResult second = run_one_job(job, full, ckpt);
    EXPECT_TRUE(second.resumed);
    EXPECT_TRUE(deterministic_fields_equal(second, reference));
    std::remove(ref_ckpt.c_str());
    std::remove(ckpt.c_str());
    references.push_back(reference);
  }
  // The schedule changed the trajectory, so the second pass resumed faults.
  EXPECT_FALSE(deterministic_fields_equal(references[0], references[1]));
}

TEST(SweepRunner, InvalidCheckpointIsDiscardedAndJobRerunsFromScratch) {
  const std::string dir = temp_dir("sweep_runner_badckpt");
  const SweepSpec spec = tiny_spec();
  const JobSpec job = expand_grid(spec)[0];

  const std::string ref_ckpt = dir + "/ref.ckpt";
  std::remove(ref_ckpt.c_str());
  const JobResult reference = run_one_job(job, spec, ref_ckpt);

  // A garbage checkpoint must not poison the job: it reruns from scratch
  // and still produces the reference row.
  const std::string ckpt = dir + "/job.ckpt";
  write_file(ckpt, "this is not a checkpoint");
  const JobResult rerun = run_one_job(job, spec, ckpt);
  EXPECT_TRUE(rerun.checkpoint_rejected);
  EXPECT_FALSE(rerun.resumed);
  EXPECT_TRUE(deterministic_fields_equal(rerun, reference));

  // Same for a checkpoint whose protocol fingerprint does not match: a
  // phase_clock snapshot planted at an approx_majority job's path. (Seed is
  // restored state, not fingerprinted — only structural mismatches reject.)
  const SweepSpec other_spec = parse_sweep_spec(
      "protocol phase_clock\nbackend count\nn 256\nseed 7\n"
      "max_rounds 8\ncheckpoint_every 1\n");
  std::remove(ckpt.c_str());
  (void)run_one_job(expand_grid(other_spec)[0], other_spec, ckpt);
  const JobResult mismatched = run_one_job(job, spec, ckpt);
  EXPECT_TRUE(mismatched.checkpoint_rejected);
  EXPECT_TRUE(deterministic_fields_equal(mismatched, reference));
  std::remove(ref_ckpt.c_str());
  std::remove(ckpt.c_str());
}

TEST(SweepRunner, UnknownUntilVariableIsARunnerError) {
  const std::string dir = temp_dir("sweep_runner_badexpr");
  SweepSpec spec = tiny_spec();
  spec.until = CountPredicate{.expr = "NOT_A_VAR"};
  EXPECT_THROW(run_one_job(expand_grid(spec)[0], spec, dir + "/x.ckpt"),
               RunnerError);
}

// -- Orchestrator ------------------------------------------------------------

TEST(SweepOrchestrator, InitRejectsUnknownNamesAndExistingManifests) {
  const std::string dir = temp_dir("sweep_orch_init");
  SweepSpec bad = parse_sweep_spec(
      "protocol no_such_protocol\nbackend count\nn 256\nseed 1\n"
      "max_rounds 2\n");
  EXPECT_THROW(init_sweep(dir, bad), SpecError);

  const SweepSpec good = tiny_spec();
  init_sweep(dir, good);
  EXPECT_THROW(init_sweep(dir, good), ManifestError);  // no overwrite
  std::remove(manifest_path(dir).c_str());
}

TEST(SweepOrchestrator, RunsInProcessAndResumeIsIdempotent) {
  const std::string dir = temp_dir("sweep_orch_idem");
  init_sweep(dir, parse_sweep_spec(
                      "protocol approx_majority\nbackend agent count\n"
                      "n 256\nseed 1 2\nmax_rounds 4\ncheckpoint_every 1\n"));
  SweepOptions options;
  options.dir = dir;  // worker_exe empty -> in-process

  const SweepReport first = run_sweep(options);
  EXPECT_TRUE(first.complete());
  EXPECT_EQ(first.total, 4u);
  EXPECT_EQ(first.executed, 4u);
  const Manifest after_first = Manifest::load(manifest_path(dir));

  // Second invocation: nothing pending, nothing re-run, rows untouched.
  const SweepReport second = run_sweep(options);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.collected, 0u);
  const Manifest after_second = Manifest::load(manifest_path(dir));
  for (std::size_t i = 0; i < after_first.jobs().size(); ++i) {
    EXPECT_EQ(after_second.jobs()[i].attempts, after_first.jobs()[i].attempts);
    EXPECT_TRUE(deterministic_fields_equal(after_second.jobs()[i].result,
                                           after_first.jobs()[i].result));
  }
  std::remove(manifest_path(dir).c_str());
}

TEST(SweepOrchestrator, ResumeCollectsOrphanResultsWithoutRerunning) {
  const std::string dir = temp_dir("sweep_orch_orphan");
  const SweepSpec spec = tiny_spec();
  init_sweep(dir, spec);

  // Simulate a crash after the worker published its result but before the
  // orchestrator collected it: row still pending/running, .result on disk.
  Manifest m = Manifest::load(manifest_path(dir));
  JobRow& row = m.jobs()[0];
  row.state = JobState::kRunning;
  row.attempts = 1;
  m.save(manifest_path(dir));
  JobResult orphan;
  orphan.rounds = 8.0;
  orphan.interactions = 1111;
  orphan.species_crc = 0xabc;
  orphan.active_n = 256;
  orphan.effective_steps = 1000;
  write_result_file(dir + "/" + row.spec.id + ".result", row.spec.id, orphan);

  SweepOptions options;
  options.dir = dir;
  const SweepReport report = run_sweep(options);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.collected, 1u);
  EXPECT_EQ(report.executed, 0u);
  const Manifest after = Manifest::load(manifest_path(dir));
  EXPECT_EQ(after.jobs()[0].state, JobState::kDone);
  EXPECT_EQ(after.jobs()[0].attempts, 1u);  // collected, not re-attempted
  EXPECT_TRUE(deterministic_fields_equal(after.jobs()[0].result, orphan));
  std::remove(manifest_path(dir).c_str());
}

TEST(SweepOrchestrator, BadCheckpointDoesNotPoisonTheSweep) {
  // A stale/corrupt per-job checkpoint left in the sweep dir: the affected
  // job re-runs from scratch, every row still matches a clean sweep.
  const std::string clean_dir = temp_dir("sweep_orch_cleanref");
  const std::string dirty_dir = temp_dir("sweep_orch_dirty");
  const SweepSpec spec = tiny_spec();
  init_sweep(clean_dir, spec);
  init_sweep(dirty_dir, spec);
  write_file(dirty_dir + "/" + expand_grid(spec)[0].id + ".ckpt",
             "garbage bytes, definitely not a snapshot");

  SweepOptions options;
  options.dir = clean_dir;
  ASSERT_TRUE(run_sweep(options).complete());
  options.dir = dirty_dir;
  ASSERT_TRUE(run_sweep(options).complete());

  const Manifest clean = Manifest::load(manifest_path(clean_dir));
  const Manifest dirty = Manifest::load(manifest_path(dirty_dir));
  for (std::size_t i = 0; i < clean.jobs().size(); ++i)
    EXPECT_TRUE(deterministic_fields_equal(clean.jobs()[i].result,
                                           dirty.jobs()[i].result));
  EXPECT_TRUE(dirty.jobs()[0].result.checkpoint_rejected);
  std::remove(manifest_path(clean_dir).c_str());
  std::remove(manifest_path(dirty_dir).c_str());
}

}  // namespace
}  // namespace popproto
