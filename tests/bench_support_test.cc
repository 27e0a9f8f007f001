#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/json.h"
#include "support/bench_runner.h"

namespace sm {
namespace {

TEST(BenchRunner, ParsesFlags) {
  const char* argv[] = {"bench", "--threads=8", "--json=out.json", "--smoke"};
  const BenchOptions o = ParseBenchArgs(4, const_cast<char**>(argv));
  EXPECT_EQ(o.threads, 8);
  EXPECT_EQ(o.json_path, "out.json");
  EXPECT_TRUE(o.smoke);

  const char* none[] = {"bench"};
  const BenchOptions d = ParseBenchArgs(1, const_cast<char**>(none));
  EXPECT_EQ(d.threads, 1);
  EXPECT_TRUE(d.json_path.empty());
  EXPECT_FALSE(d.smoke);
}

TEST(BenchRunner, RejectsMalformedFlags) {
  auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    return ParseBenchArgs(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()));
  };
  EXPECT_THROW(parse({"--threads=abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--threads="}), std::invalid_argument);
  EXPECT_THROW(parse({"--json="}), std::invalid_argument);
  EXPECT_THROW(parse({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse({"extra"}), std::invalid_argument);
}

TEST(BenchRunner, WriteBenchJsonWritesTheCanonicalDump) {
  Json doc = Json::MakeObject();
  doc.Set("bench", "unit");
  doc.Set("seconds", 20.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_support_test.json")
          .string();
  WriteBenchJson(path, doc);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\"bench\":\"unit\",\"seconds\":20}\n");
  std::filesystem::remove(path);

  EXPECT_THROW(WriteBenchJson("/nonexistent-dir/x.json", doc),
               std::invalid_argument);
}

}  // namespace
}  // namespace sm
