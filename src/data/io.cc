#include "data/io.h"

#include <limits>

#include "util/csv.h"
#include "util/string_util.h"

namespace iq {

Status SaveDatasetCsv(const Dataset& data, const std::string& path) {
  return WriteCsvFile(data.ToCsv(), path);
}

Result<Dataset> LoadDatasetCsv(const std::string& path) {
  IQ_ASSIGN_OR_RETURN(CsvTable csv, ReadCsvFile(path));
  std::vector<std::string> attr_columns;
  for (const std::string& name : csv.header) {
    if (name != "id") attr_columns.push_back(name);
  }
  return Dataset::FromCsv(csv, attr_columns);
}

Status SaveQueriesCsv(const QuerySet& queries, const std::string& path) {
  CsvTable csv;
  csv.header.push_back("k");
  for (int j = 0; j < queries.num_weights(); ++j) {
    csv.header.push_back(StrFormat("w%d", j + 1));
  }
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    std::vector<std::string> row;
    row.push_back(StrFormat("%d", queries.query(q).k));
    for (double w : queries.query(q).weights) {
      row.push_back(StrFormat("%.17g", w));
    }
    csv.rows.push_back(std::move(row));
  }
  return WriteCsvFile(csv, path);
}

Result<std::vector<TopKQuery>> LoadQueriesCsv(const std::string& path,
                                              int* num_weights) {
  IQ_ASSIGN_OR_RETURN(CsvTable csv, ReadCsvFile(path));
  int k_col = csv.ColumnIndex("k");
  if (k_col < 0) return Status::InvalidArgument("queries csv needs a k column");
  std::vector<int> w_cols;
  for (int c = 0; c < csv.num_columns(); ++c) {
    if (c != k_col) w_cols.push_back(c);
  }
  if (w_cols.empty()) {
    return Status::InvalidArgument("queries csv has no weight columns");
  }
  std::vector<TopKQuery> out;
  out.reserve(static_cast<size_t>(csv.num_rows()));
  for (const auto& row : csv.rows) {
    TopKQuery q;
    IQ_ASSIGN_OR_RETURN(int64_t k, ParseInt(row[static_cast<size_t>(k_col)]));
    if (k < 1 || k > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("k must be in [1, INT_MAX]");
    }
    q.k = static_cast<int>(k);
    q.weights.reserve(w_cols.size());
    for (int c : w_cols) {
      IQ_ASSIGN_OR_RETURN(double w, ParseDouble(row[static_cast<size_t>(c)]));
      q.weights.push_back(w);
    }
    out.push_back(std::move(q));
  }
  if (num_weights != nullptr) *num_weights = static_cast<int>(w_cols.size());
  return out;
}

}  // namespace iq
