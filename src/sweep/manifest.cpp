#include "sweep/manifest.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/parse.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

constexpr const char* kMagic = "popsweep-manifest v1";
constexpr const char* kResultMagic = "popsweep-result v1";

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string fmt_hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

std::string fmt_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  return buf;
}

// C99 hexfloat: round-trips the IEEE-754 bit pattern exactly, which the
// bit-identical row-set acceptance (bench_sweep) depends on.
std::string fmt_exact(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// A "0x"-prefixed hex field (crcs): the prefix, then parse_u64's base 16.
std::optional<std::uint64_t> parse_hex(const std::string& s) {
  if (s.compare(0, 2, "0x") != 0) return std::nullopt;
  return parse_u64(std::string_view(s).substr(2), 16);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw ManifestError{path + ": " + what};
}

/// key=value fields of a job/result line, after the positional tokens.
struct FieldMap {
  std::vector<std::pair<std::string, std::string>> fields;
  const std::string* get(const char* key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
};

/// The key=value fields among tokens[from..].
FieldMap split_fields(const std::vector<std::string>& tokens,
                      std::size_t from) {
  FieldMap out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    out.fields.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return out;
}

std::string result_body(const std::string& job_id, const JobResult& r) {
  std::string out;
  out += "rounds=" + fmt_exact(r.rounds);
  out += " interactions=" + fmt_u64(r.interactions);
  out += " converged=" + std::string(r.converged ? "1" : "0");
  out += " converged_at=" + fmt_exact(r.converged_at);
  out += " species_crc=" + fmt_hex64(r.species_crc);
  out += " active_n=" + fmt_u64(r.active_n);
  out += " effective=" + fmt_u64(r.effective_steps);
  char wall[48];
  std::snprintf(wall, sizeof wall, "%.17g", r.wall_seconds);
  out += " wall=" + std::string(wall);
  out += " resumed=" + std::string(r.resumed ? "1" : "0");
  out += " ckpt_rejected=" + std::string(r.checkpoint_rejected ? "1" : "0");
  (void)job_id;
  return out;
}

void parse_result_fields(const std::string& path, const FieldMap& f,
                         JobResult* r) {
  const auto need = [&](const char* key) -> const std::string& {
    const std::string* v = f.get(key);
    if (v == nullptr) corrupt(path, std::string("missing field ") + key);
    return *v;
  };
  const auto field = [&](const char* key, auto parsed) {
    if (!parsed) corrupt(path, std::string("bad ") + key + " field");
    return *parsed;
  };
  const auto u64 = [&](const char* key) {
    return field(key, parse_u64(need(key)));
  };
  const auto dbl = [&](const char* key) {
    return field(key, parse_double(need(key)));
  };
  const auto flag = [&](const char* key) {
    const std::uint64_t v = u64(key);
    if (v > 1) corrupt(path, std::string("bad ") + key + " field");
    return v == 1;
  };
  r->rounds = dbl("rounds");
  r->interactions = u64("interactions");
  r->converged = flag("converged");
  r->converged_at = dbl("converged_at");
  r->species_crc = field("species_crc", parse_hex(need("species_crc")));
  r->active_n = u64("active_n");
  r->effective_steps = u64("effective");
  r->wall_seconds = dbl("wall");
  r->resumed = flag("resumed");
  r->checkpoint_rejected = flag("ckpt_rejected");
}

/// Atomic publish shared by the manifest and result writers.
void write_atomically(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw ManifestError{"cannot open staging file " + tmp};
    out << body;
    out.flush();
    if (!out) throw ManifestError{"write failed: " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw ManifestError{"cannot publish " + path};
}

/// Read `path` whole and strip + verify the `end <crc32>` trailer; returns
/// the trailer-covered prefix. The trailer proves the rename-published file
/// is complete AND unmodified — a torn write cannot survive the rename
/// idiom, but a copy truncated in transit or a hand-edited row can, and
/// both must fail loudly rather than resume a wrong row set.
std::string read_checked(const std::string& path, bool* missing) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (missing != nullptr) {
      *missing = true;
      return {};
    }
    corrupt(path, "cannot read");
  }
  if (missing != nullptr) *missing = false;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  if (text.empty() || text.back() != '\n')
    corrupt(path, "truncated (no trailing newline)");
  const std::size_t pos = text.rfind("\nend ");
  if (pos == std::string::npos) corrupt(path, "truncated (no end trailer)");
  // "end 0x........", without the final newline.
  const std::vector<std::string> trailer =
      tokenize(std::string_view(text).substr(pos + 1, text.size() - pos - 2));
  if (trailer.size() != 2 || trailer[0] != "end")
    corrupt(path, "malformed end trailer");
  const auto stored = parse_hex(trailer[1]);
  if (!stored) corrupt(path, "malformed end trailer crc");
  const std::string body = text.substr(0, pos + 1);
  if (crc32(body) != static_cast<std::uint32_t>(*stored))
    corrupt(path, "crc mismatch (truncated or corrupt)");
  return body;
}

std::string with_trailer(const std::string& body) {
  return body + "end " + fmt_hex32(crc32(body)) + "\n";
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

bool deterministic_fields_equal(const JobResult& a, const JobResult& b) {
  std::uint64_t ra, rb, ca, cb;
  std::memcpy(&ra, &a.rounds, sizeof ra);
  std::memcpy(&rb, &b.rounds, sizeof rb);
  std::memcpy(&ca, &a.converged_at, sizeof ca);
  std::memcpy(&cb, &b.converged_at, sizeof cb);
  return ra == rb && a.interactions == b.interactions &&
         a.converged == b.converged && ca == cb &&
         a.species_crc == b.species_crc && a.active_n == b.active_n &&
         a.effective_steps == b.effective_steps;
}

Manifest Manifest::create(const SweepSpec& spec) {
  Manifest m;
  m.spec_ = spec;
  if (m.spec_.text.empty() || m.spec_.text.back() != '\n')
    m.spec_.text += '\n';  // canonical form, so the crc is reproducible
  m.spec_crc_ = crc32(m.spec_.text);
  for (JobSpec& job : expand_grid(m.spec_)) {
    JobRow row;
    row.spec = std::move(job);
    m.jobs_.push_back(std::move(row));
  }
  return m;
}

void Manifest::save(const std::string& path) const {
  std::string body;
  body += kMagic;
  body += "\nspec_crc " + fmt_hex32(spec_crc_);
  const std::vector<std::string> spec_lines = split_lines(spec_.text);
  body += "\nspec_lines " + fmt_u64(spec_lines.size()) + "\n";
  for (const auto& line : spec_lines) body += "| " + line + "\n";
  body += "jobs " + fmt_u64(jobs_.size()) + "\n";
  for (const JobRow& row : jobs_) {
    body += "job " + row.spec.id + " " + job_state_name(row.state) +
            " attempts=" + fmt_u64(row.attempts);
    if (row.state == JobState::kDone)
      body += " " + result_body(row.spec.id, row.result);
    body += "\n";
  }
  write_atomically(path, with_trailer(body));
}

Manifest Manifest::load(const std::string& path) {
  const std::string body = read_checked(path, nullptr);
  const std::vector<std::string> lines = split_lines(body);
  std::size_t i = 0;
  const auto next = [&]() -> const std::string& {
    if (i >= lines.size()) corrupt(path, "unexpected end of manifest");
    return lines[i++];
  };
  if (next() != kMagic) corrupt(path, "bad magic line");

  // A "<key> <value>" header line's value.
  const auto header = [&](const std::string& key) {
    const std::vector<std::string> t = tokenize(next());
    if (t.size() != 2 || t[0] != key) corrupt(path, "bad " + key + " line");
    return t[1];
  };
  const auto stored_spec_crc = parse_hex(header("spec_crc"));
  if (!stored_spec_crc) corrupt(path, "bad spec_crc line");
  const auto spec_lines = parse_u64(header("spec_lines"));
  if (!spec_lines) corrupt(path, "bad spec_lines line");
  std::string spec_text;
  for (std::uint64_t k = 0; k < *spec_lines; ++k) {
    const std::string& line = next();
    if (line.compare(0, 2, "| ") != 0) corrupt(path, "bad spec body line");
    spec_text += line.substr(2);
    spec_text += '\n';
  }
  if (crc32(spec_text) != static_cast<std::uint32_t>(*stored_spec_crc))
    corrupt(path, "embedded spec does not match spec_crc");

  Manifest m;
  try {
    m.spec_ = parse_sweep_spec(spec_text);
  } catch (const SpecError& e) {
    corrupt(path, "embedded spec invalid: " + e.message);
  }
  m.spec_crc_ = static_cast<std::uint32_t>(*stored_spec_crc);

  const auto job_count = parse_u64(header("jobs"));
  if (!job_count) corrupt(path, "bad jobs line");

  // Rows must be exactly the embedded spec's grid, in expansion order: the
  // id is the join key between manifest, checkpoints, and result files.
  std::vector<JobSpec> grid = expand_grid(m.spec_);
  if (*job_count != grid.size())
    corrupt(path, "job count disagrees with the embedded spec's grid");
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const std::vector<std::string> row_tokens = tokenize(next());
    if (row_tokens.size() < 3 || row_tokens[0] != "job")
      corrupt(path, "bad job row");
    const std::string& id = row_tokens[1];
    const std::string& state = row_tokens[2];
    if (id != grid[k].id)
      corrupt(path, "job row '" + id + "' does not match grid id '" +
                        grid[k].id + "'");
    JobRow row;
    row.spec = std::move(grid[k]);
    if (state == "pending")
      row.state = JobState::kPending;
    else if (state == "running")
      row.state = JobState::kRunning;
    else if (state == "done")
      row.state = JobState::kDone;
    else if (state == "failed")
      row.state = JobState::kFailed;
    else
      corrupt(path, "bad job state '" + state + "'");
    const FieldMap fields = split_fields(row_tokens, 3);
    const std::string* attempts = fields.get("attempts");
    const auto a = attempts ? parse_u64(*attempts) : std::nullopt;
    if (!a || *a > UINT32_MAX) corrupt(path, "bad attempts field");
    row.attempts = static_cast<std::uint32_t>(*a);
    if (row.state == JobState::kDone)
      parse_result_fields(path, fields, &row.result);
    m.jobs_.push_back(std::move(row));
  }
  if (i != lines.size()) corrupt(path, "trailing content after job rows");
  return m;
}

JobRow* Manifest::find(const std::string& id) {
  for (JobRow& row : jobs_)
    if (row.spec.id == id) return &row;
  return nullptr;
}

std::size_t Manifest::count(JobState s) const {
  std::size_t n = 0;
  for (const JobRow& row : jobs_)
    if (row.state == s) ++n;
  return n;
}

void write_result_file(const std::string& path, const std::string& job_id,
                       const JobResult& result) {
  std::string body;
  body += kResultMagic;
  body += "\njob " + job_id + " " + result_body(job_id, result) + "\n";
  write_atomically(path, with_trailer(body));
}

bool read_result_file(const std::string& path, const std::string& job_id,
                      JobResult* out) {
  bool missing = false;
  const std::string body = read_checked(path, &missing);
  if (missing) return false;
  const std::vector<std::string> lines = split_lines(body);
  if (lines.size() != 2 || lines[0] != kResultMagic)
    corrupt(path, "bad result file");
  const std::vector<std::string> row = tokenize(lines[1]);
  if (row.size() < 2 || row[0] != "job") corrupt(path, "bad result row");
  if (row[1] != job_id)
    corrupt(path,
            "result for job '" + row[1] + "', expected '" + job_id + "'");
  JobResult r;
  parse_result_fields(path, split_fields(row, 2), &r);
  *out = r;
  return true;
}

}  // namespace popproto
