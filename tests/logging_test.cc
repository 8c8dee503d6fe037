#include "common/logging.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace locaware {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = Logger::Instance().level(); }
  void TearDown() override { Logger::Instance().set_level(saved_level_); }
  LogLevel saved_level_;
};

TEST_F(LoggingTest, LevelsAreOrdered) {
  Logger::Instance().set_level(LogLevel::kWarning);
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kWarning));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kError));
}

TEST_F(LoggingTest, OffDisablesEverything) {
  Logger::Instance().set_level(LogLevel::kOff);
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kError));
}

TEST_F(LoggingTest, DebugEnablesEverything) {
  Logger::Instance().set_level(LogLevel::kDebug);
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kDebug));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kError));
}

TEST_F(LoggingTest, MacroShortCircuitsWhenDisabled) {
  Logger::Instance().set_level(LogLevel::kOff);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  LOG_DEBUG << "value " << expensive();
  LOG_ERROR << "value " << expensive();
  EXPECT_EQ(evaluations, 0) << "stream arguments must not evaluate when disabled";
}

TEST_F(LoggingTest, MacroEvaluatesWhenEnabled) {
  Logger::Instance().set_level(LogLevel::kError);
  int evaluations = 0;
  auto counted = [&] {
    ++evaluations;
    return 1;
  };
  LOG_ERROR << "x" << counted();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LoggingTest, LevelFlipsWhileThreadsLog) {
  // Four threads log while the main thread flips the level between two that
  // print nothing at kDebug, until the threads have logged a while; a data
  // race on the level shows up under ThreadSanitizer.
  std::atomic<bool> stop{false};
  std::atomic<int> logged{0};
  std::vector<std::thread> loggers;
  for (int t = 0; t < 4; ++t) {
    loggers.emplace_back([&stop, &logged] {
      while (!stop.load(std::memory_order_relaxed)) {
        LOG_DEBUG << "never printed";
        logged.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 1000 || logged.load(std::memory_order_relaxed) < 4000; ++i) {
    Logger::Instance().set_level(LogLevel::kOff);
    Logger::Instance().set_level(LogLevel::kError);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : loggers) t.join();
  EXPECT_EQ(Logger::Instance().level(), LogLevel::kError);
}

TEST_F(LoggingTest, SingletonIdentity) {
  EXPECT_EQ(&Logger::Instance(), &Logger::Instance());
}

}  // namespace
}  // namespace locaware
