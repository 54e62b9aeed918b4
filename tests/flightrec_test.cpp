// Crash flight recorder tests (DESIGN.md §15): the ring's wraparound and
// dump format, the degraded-exit and SIGUSR1 dump triggers, and the log
// lines that feed the ring.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace rr {
namespace {

std::string tmp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

Json dump_and_parse(const FlightRecorder& rec, const std::string& path) {
  EXPECT_TRUE(rec.dump_to(path.c_str()));
  return Json::parse(read_file(path));
}

TEST(FlightRec, RingWrapsAndDumpKeepsTheTail) {
  auto rec = std::make_unique<FlightRecorder>();
  constexpr int kTotal = 600;  // > 2 laps of the 256-slot ring
  for (int i = 0; i < kTotal; ++i)
    rec->record(FlightKind::kMetric, "event " + std::to_string(i),
                static_cast<double>(i));
  EXPECT_EQ(rec->recorded(), static_cast<std::uint64_t>(kTotal));

  const std::string path = tmp_path("flightrec-wrap.json");
  const Json doc = dump_and_parse(*rec, path);
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  EXPECT_EQ(doc.at("recorded").as_int(), kTotal);
  EXPECT_EQ(doc.at("dropped").as_int(),
            kTotal - static_cast<int>(FlightRecorder::kSlots));
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  // The surviving window is exactly the most recent kSlots, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int seq = kTotal - static_cast<int>(FlightRecorder::kSlots) +
                    static_cast<int>(i);
    EXPECT_EQ(events.at(i).at("seq").as_int(), seq);
    EXPECT_EQ(events.at(i).at("kind").as_string(), "metric");
    EXPECT_EQ(events.at(i).at("msg").as_string(),
              "event " + std::to_string(seq));
    EXPECT_EQ(events.at(i).at("value").as_double(),
              static_cast<double>(seq));
  }
}

TEST(FlightRec, MessagesTruncateAndEscape) {
  auto rec = std::make_unique<FlightRecorder>();
  rec->record(FlightKind::kMark, std::string(1000, 'x'));
  rec->record(FlightKind::kLog, "quote \" backslash \\ newline \n done");
  const Json doc = dump_and_parse(*rec, tmp_path("flightrec-trunc.json"));
  const Json& events = doc.at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(std::size_t{0}).at("msg").as_string(),
            std::string(FlightRecorder::kMsgBytes, 'x'));
  EXPECT_EQ(events.at(std::size_t{1}).at("msg").as_string(),
            "quote \" backslash \\ newline \n done");
}

TEST(FlightRec, DumpOnExitTriggersAtDegradedAndAbove) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("flightrec-exit.json");
  g.set_dump_path(path);
  g.record(FlightKind::kMark, "about to degrade");

  ::unlink(path.c_str());
  EXPECT_EQ(FlightRecorder::dump_on_exit(0), 0);  // clean: no dump
  EXPECT_THROW((void)read_file(path), std::runtime_error);
  EXPECT_EQ(FlightRecorder::dump_on_exit(3), 3);  // degraded: dump
  const Json doc = Json::parse(read_file(path));
  EXPECT_EQ(doc.at("events").size(), 1u);
  g.reset();
}

TEST(FlightRec, Sigusr1DumpsTheLiveRing) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("flightrec-usr1.json");
  g.set_dump_path(path);
  EXPECT_TRUE(g.has_dump_path());
  EXPECT_EQ(g.dump_path(), path);
  g.record(FlightKind::kMark, "poked");
  FlightRecorder::install_sigusr1();
  ::raise(SIGUSR1);  // handler runs synchronously in this thread
  const Json doc = Json::parse(read_file(path));
  EXPECT_EQ(doc.at("flightrec").as_string(), "rr-flightrec");
  bool found = false;
  for (const Json& e : doc.at("events").as_array())
    if (e.at("msg").as_string() == "poked") found = true;
  EXPECT_TRUE(found);
  g.reset();
}

// ---------------------------------------------------------------------------
// Logging feeds both the JSONL sink and the flight ring.
// ---------------------------------------------------------------------------

TEST(FlightRecLog, JsonlLogLinesAlsoFeedTheFlightRing) {
  FlightRecorder& g = FlightRecorder::global();
  g.reset();
  const std::string path = tmp_path("log-flight.jsonl");
  set_log_level(LogLevel::kInfo);  // default kWarn would drop RR_INFO
  set_log_json_path(path);
  RR_INFO("campaign line one");
  RR_WARN("campaign line two");
  set_log_json_path("");
  set_log_level(LogLevel::kWarn);

  const auto file = read_jsonl(read_file(path));
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.records[0].at("msg").as_string(), "campaign line one");
  EXPECT_EQ(file.records[0].at("level").as_string(), "info");
  EXPECT_EQ(file.records[1].at("msg").as_string(), "campaign line two");

  // Both lines also landed in the flight ring via the logger hook, with
  // the log level as the event value.
  const Json doc = dump_and_parse(g, tmp_path("log-flight.json"));
  std::vector<std::string> logged;
  for (const Json& e : doc.at("events").as_array())
    if (e.at("kind").as_string() == "log")
      logged.push_back(e.at("msg").as_string());
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[0], "campaign line one");
  EXPECT_EQ(logged[1], "campaign line two");
  g.reset();
}

}  // namespace
}  // namespace rr
