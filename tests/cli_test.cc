// Runs the built `edgeshed` binary (its path comes from CMake as
// EDGESHED_CLI_PATH) and checks the command table's contract: the paper
// workflow runs end to end, and every flag, argument or command the table
// does not declare is rejected with exit 2 before anything runs.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  CliRun Run(const std::string& args) const {
    const std::string log = Path("run.log");
    const std::string command = std::string(EDGESHED_CLI_PATH) + " " + args +
                                " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    CliRun run;
    if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    run.output = text.str();
    return run;
  }

  std::string dir_;
};

TEST_F(CliTest, GenerateConvertReduceStatsPipeline) {
  CliRun run = Run("generate --dataset=grqc --scale=0.05 --output=" +
                   Path("g.txt"));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  run = Run("convert --input=" + Path("g.txt") +
            " --binary_output=" + Path("g.esg"));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  run = Run("reduce --input=" + Path("g.esg") +
            " --method=crr --p=0.5 --seed=42 --output=" + Path("r.txt") +
            " --binary_output=" + Path("r.esg"));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(std::filesystem::exists(Path("r.txt")));
  EXPECT_TRUE(std::filesystem::exists(Path("r.esg")));
  // "crr: kept N / M edges ..." — the reduced snapshot must hold N edges.
  const size_t at = run.output.find("kept ");
  ASSERT_NE(at, std::string::npos) << run.output;
  const std::string kept =
      run.output.substr(at + 5, run.output.find(' ', at + 5) - at - 5);

  run = Run("stats --input=" + Path("r.esg"));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("edges:       " + kept + "\n"), std::string::npos)
      << run.output;
}

TEST_F(CliTest, UnknownFlagExitsTwoAndNamesIt) {
  const CliRun run = Run("reduce --input=" + Path("g.txt") + " --ouput=" +
                         Path("r.txt"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("ouput"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("edgeshed reduce"), std::string::npos)
      << run.output;
  EXPECT_FALSE(std::filesystem::exists(Path("r.txt")));
}

TEST_F(CliTest, StrayPositionalExitsTwo) {
  // "--stats_port -1" parses as a bare --stats_port plus a stray "-1"; it
  // must not start a server with the port read as "true".
  const CliRun run = Run("serve --serve_ms=1 --stats_port -1");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("'-1'"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("rpc server on"), std::string::npos)
      << run.output;
}

TEST_F(CliTest, UnknownCommandListsEveryCommand) {
  const CliRun run = Run("frobnicate");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  for (const char* command :
       {"generate", "convert", "reduce", "analyze", "stats", "service",
        "serve", "client", "mutate", "coordinate"}) {
    EXPECT_NE(run.output.find(std::string("edgeshed ") + command + " "),
              std::string::npos)
        << command << " missing from:\n" << run.output;
  }
}

TEST_F(CliTest, UsageErrorInsideCommandExitsTwo) {
  const CliRun run = Run("generate --dataset=nope");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown dataset: nope"), std::string::npos)
      << run.output;
}

TEST_F(CliTest, BadEdgePairExitsTwoBeforeAnyRpc) {
  // Port 1 has no server: the flag must be rejected before a connect.
  const CliRun run =
      Run("client --op=apply --port=1 --insert=5:6,7:x --retries=0");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("bad --insert entry"), std::string::npos)
      << run.output;
}

TEST_F(CliTest, MalformedNumberExitsTwoBeforeAnyServer) {
  // "off" is not a port: it must not read as 0 and start the stats server
  // on an ephemeral port.
  const CliRun run = Run("service --stats_port=off --scale=0.05");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--stats_port expects an integer, got 'off'"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("stats server on"), std::string::npos)
      << run.output;
}

TEST_F(CliTest, BooleanFlagTakesNoSeparateValue) {
  // A bare boolean leaves the next word positional, so it is reported as a
  // stray argument instead of being swallowed as the flag's value.
  CliRun run = Run("serve --degrade extra --serve_ms=200");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unexpected argument 'extra'"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("rpc server on"), std::string::npos)
      << run.output;
  run = Run("serve --degrade=yes --serve_ms=200");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--degrade takes true or false, got 'yes'"),
            std::string::npos)
      << run.output;
}

TEST_F(CliTest, MissingInputFileExitsOne) {
  const CliRun run = Run("stats --input=" + Path("missing.txt"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("missing.txt"), std::string::npos) << run.output;
}

}  // namespace
