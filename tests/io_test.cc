#include <gtest/gtest.h>

#include "data/io.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "data/workload.h"

namespace iq {
namespace {

TEST(IoTest, DatasetRoundTrip) {
  Dataset original = MakeIndependent(50, 4, 11);
  std::string path = testing::TempDir() + "/iq_objects.csv";
  ASSERT_TRUE(SaveDatasetCsv(original, path).ok());
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->dim(), original.dim());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(ApproxEqual(loaded->attrs(i), original.attrs(i), 1e-15));
  }
}

TEST(IoTest, DatasetRoundTripSkipsTombstones) {
  Dataset original = MakeIndependent(10, 2, 12);
  ASSERT_TRUE(original.Remove(3).ok());
  std::string path = testing::TempDir() + "/iq_objects2.csv";
  ASSERT_TRUE(SaveDatasetCsv(original, path).ok());
  auto loaded = LoadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 9);
}

TEST(IoTest, QueriesRoundTrip) {
  QuerySet original(3);
  QueryGenOptions qopts;
  qopts.k_max = 7;
  for (TopKQuery& q : MakeQueries(30, 3, 13, qopts)) {
    ASSERT_TRUE(original.Add(std::move(q)).ok());
  }
  ASSERT_TRUE(original.Remove(5).ok());
  std::string path = testing::TempDir() + "/iq_queries.csv";
  ASSERT_TRUE(SaveQueriesCsv(original, path).ok());

  int num_weights = 0;
  auto loaded = LoadQueriesCsv(path, &num_weights);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(num_weights, 3);
  ASSERT_EQ(loaded->size(), 29u);  // tombstoned query skipped
  // Spot-check the first surviving query.
  EXPECT_EQ((*loaded)[0].k, original.query(0).k);
  EXPECT_TRUE(ApproxEqual((*loaded)[0].weights, original.query(0).weights,
                          1e-15));
}

TEST(IoTest, LoadErrors) {
  EXPECT_FALSE(LoadDatasetCsv("/nonexistent/file.csv").ok());
  EXPECT_FALSE(LoadQueriesCsv("/nonexistent/file.csv").ok());

  // Queries file without a k column.
  std::string path = testing::TempDir() + "/iq_bad_queries.csv";
  CsvTable bad;
  bad.header = {"w1", "w2"};
  bad.rows = {{"0.5", "0.5"}};
  ASSERT_TRUE(WriteCsvFile(bad, path).ok());
  EXPECT_FALSE(LoadQueriesCsv(path).ok());

  // k must be positive and fit an int: 2^32 + 1 used to load as k = 1.
  for (const char* k : {"0", "2147483648", "4294967297"}) {
    SCOPED_TRACE(k);
    CsvTable bad_k;
    bad_k.header = {"k", "w1"};
    bad_k.rows = {{k, "0.5"}};
    ASSERT_TRUE(WriteCsvFile(bad_k, path).ok());
    EXPECT_EQ(LoadQueriesCsv(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  CsvTable max_k;
  max_k.header = {"k", "w1"};
  max_k.rows = {{"2147483647", "0.5"}};
  ASSERT_TRUE(WriteCsvFile(max_k, path).ok());
  auto loaded = LoadQueriesCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)[0].k, 2147483647);
}

TEST(IoTest, NonFiniteQueryWeightFailsWorkloadMake) {
  // The CSV parser reads these as doubles; the query set must refuse them
  // (an infinite weight used to abort the first MinCost call, a NaN one
  // was kept silently).
  std::string path = testing::TempDir() + "/iq_nonfinite_queries.csv";
  for (const char* w : {"inf", "-inf", "1e999", "nan"}) {
    SCOPED_TRACE(w);
    CsvTable csv;
    csv.header = {"k", "w1", "w2"};
    csv.rows = {{"1", "0.5", "0.5"}, {"2", w, "0.5"}};
    ASSERT_TRUE(WriteCsvFile(csv, path).ok());
    auto queries = LoadQueriesCsv(path);
    ASSERT_TRUE(queries.ok()) << queries.status().ToString();
    auto workload = Workload::Make(MakeIndependent(20, 2, 14),
                                   LinearForm::Identity(2),
                                   std::move(*queries));
    EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace iq
