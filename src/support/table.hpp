// Tabular output for benchmark/experiment results (markdown and CSV).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace popproto {

/// Column-typed result table; renders aligned GitHub-flavoured markdown or
/// CSV. Cells are formatted at insertion time.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(std::uint64_t v);
  Table& add(std::int64_t v);
  Table& add(int v);
  Table& add(double v, int precision = 3);
  /// "123 / 456"-style fraction cell.
  Table& add_fraction(std::uint64_t num, std::uint64_t den);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  std::string to_markdown() const;
  std::string to_csv() const;
  /// Print markdown (or CSV when csv == true) with a title line.
  void print(std::ostream& os, const std::string& title, bool csv = false) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision, trimming to a compact string.
std::string format_double(double v, int precision);

}  // namespace popproto
