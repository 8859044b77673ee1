// End-to-end test of the live serving daemon: spawns `omniboost_cli serve
// --listen` as a subprocess, drives it over loopback TCP with the clause
// grammar, and checks (a) stream-conservation accounting, (b) that the
// saved live trace replays offline to the identical conservation line, and
// (c) that idle-time background re-search runs and installs improvements
// without disturbing stream accounting, (d) that a long session keeps its
// memory flat and still saves a byte-exact trace, and (e) that an oversized
// line costs its client the connection, not the daemon its life. Self-skips
// when the CLI binary was not built (OMNIBOOST_BUILD_TOOLS=OFF).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/model_id.hpp"
#include "util/net.hpp"
#include "workload/scenario.hpp"

// Sanitizer allocators quarantine or shadow freed memory, so a daemon built
// with one grows its RSS with every allocation whatever the code keeps; the
// memory pin below only holds for plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OMNIBOOST_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OMNIBOOST_TEST_SANITIZED 1
#endif
#endif

namespace {

using omniboost::util::TcpStream;
using omniboost::util::tcp_connect;

#ifndef OMNIBOOST_CLI_PATH
TEST(DaemonE2E, RequiresCliBinary) {
  GTEST_SKIP() << "omniboost_cli not built (OMNIBOOST_BUILD_TOOLS=OFF)";
}
#else

/// A daemon subprocess handle: forked with its stdout piped back so the test
/// can read the `listening on <port>` banner (and knows its pid, to read its
/// memory high-water mark), torn down by a protocol `shutdown` + waitpid, or
/// killed if a test bails out first.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& extra_flags) {
    const std::string cmd = "exec " + std::string(OMNIBOOST_CLI_PATH) +
                            " serve --listen 0 --scheduler greedy " +
                            extra_flags + " 2>&1";
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
    if (pid_ < 0 || out_ == nullptr) return;
    char line[256];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      unsigned port = 0;
      if (std::sscanf(line, "listening on %u", &port) == 1) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
    }
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) std::fclose(out_);
  }

  bool running() const { return pid_ > 0 && port_ != 0; }
  std::uint16_t port() const { return port_; }

  /// The daemon's peak resident set (VmHWM), in KiB.
  std::size_t peak_rss_kib() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    std::size_t kib = 0;
    while (status >> key) {
      if (key == "VmHWM:") {
        status >> kib;
        return kib;
      }
    }
    return 0;
  }

  /// Sends `shutdown` and reaps the subprocess; returns its wait status.
  int shutdown() {
    TcpStream s = tcp_connect("127.0.0.1", port_);
    s.send_line("shutdown");
    std::string line;
    s.recv_line(&line, 5000);
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  std::uint16_t port_ = 0;
};

struct Reply {
  std::vector<std::string> body;
  bool ok = false;
  std::string error;
};

/// One command round-trip on an open connection.
Reply roundtrip(TcpStream& s, const std::string& line) {
  s.send_line(line);
  Reply r;
  std::string got;
  while (s.recv_line(&got, 10000) == TcpStream::RecvStatus::kLine) {
    if (got == "ok") {
      r.ok = true;
      return r;
    }
    if (got == "err" || got.rfind("err ", 0) == 0) {
      r.error = got;
      return r;
    }
    r.body.push_back(got);
  }
  r.error = "connection closed before terminator";
  return r;
}

/// One command round-trip on a fresh connection (the daemon serves clients
/// sequentially and survives disconnects, so per-command connections also
/// exercise the reconnect path).
Reply command(std::uint16_t port, const std::string& line) {
  TcpStream s = tcp_connect("127.0.0.1", port);
  return roundtrip(s, line);
}

/// Finds the `conservation: ...` line in a reply body / text blob.
std::string conservation_line(const std::vector<std::string>& lines) {
  for (const std::string& l : lines)
    if (l.rfind("conservation:", 0) == 0) return l;
  return "";
}

/// Parses `key=value` integers out of a status line.
std::size_t field(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " not in: " << line;
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(line.c_str() + at + needle.size(), nullptr, 10));
}

/// Runs the CLI offline on a saved trace and returns its conservation line.
std::string offline_conservation(const std::string& trace_path,
                                 const std::string& flags) {
  const std::string cmd = std::string(OMNIBOOST_CLI_PATH) +
                          " serve --scenario " + trace_path + " " + flags +
                          " --scheduler greedy 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return "";
  std::vector<std::string> lines;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    std::string l(buf);
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) l.pop_back();
    lines.push_back(l);
  }
  pclose(pipe);
  return conservation_line(lines);
}

TEST(DaemonE2E, LiveSessionConservesStreamsAndReplaysBitExact) {
  // x200 wall-clock pacing: a ~1s real session spans ~200 scenario seconds.
  DaemonProcess daemon("--boards 2 --time-scale 200");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  const std::uint16_t port = daemon.port();

  // A session touching every command class: arrivals (with and without
  // SLO), a board failure (forcing failover), recovery, and departures.
  for (const char* cmd :
       {"arrive MobileNet slo 100", "arrive AlexNet", "arrive ResNet-50",
        "fail board 0", "recover board 0", "depart AlexNet"}) {
    const Reply r = command(port, cmd);
    EXPECT_TRUE(r.ok) << cmd << " -> " << r.error;
  }

  // Malformed commands produce clean `err` replies on a live daemon — and
  // the daemon keeps serving afterwards.
  for (const char* bad :
       {"arrive NoSuchNet", "arrive MobileNet", "depart MobileNet extra",
        "fail board 99", "throttle board 0 2", "save-trace",
        "at 3 arrive VGG-19"}) {
    const Reply r = command(port, bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_EQ(r.error.rfind("err", 0), 0u) << bad;
  }

  const Reply status = command(port, "status");
  ASSERT_TRUE(status.ok) << status.error;
  const std::string live = conservation_line(status.body);
  ASSERT_FALSE(live.empty());
  // Conservation: every admitted stream is served to departure, shed by a
  // failover, or still resident.
  EXPECT_EQ(field(live, "admitted"),
            field(live, "departures") + field(live, "shed") +
                field(live, "resident"));
  EXPECT_EQ(field(live, "offered"),
            field(live, "admitted") + field(live, "rejected"));
  EXPECT_EQ(field(live, "offered"), 3u);
  EXPECT_EQ(field(live, "departures"), 1u);

  const std::string trace = ::testing::TempDir() + "daemon_live.trace";
  const Reply saved = command(port, "save-trace " + trace);
  EXPECT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(daemon.shutdown(), 0);

  // Replay parity: the recorded trace through the offline Cluster replayer
  // (same binary, same scheduler/fleet flags) reproduces the daemon's
  // stream accounting verbatim. Greedy decisions depend only on the mix,
  // so live and offline decisions coincide epoch-for-epoch.
  const std::string offline = offline_conservation(trace, "--boards 2");
  EXPECT_EQ(offline, live);
}

TEST(DaemonE2E, IdleTimeBackgroundResearchInstallsImprovements) {
  // Two boards, two 2-DNN mixes where greedy leaves headroom, generous
  // slices: idle polling must run background BnB slices and install a
  // strictly-improving mapping — without touching stream accounting.
  DaemonProcess daemon("--boards 2 --time-scale 100 --background-slice-ms 50");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  const std::uint16_t port = daemon.port();

  for (const char* cmd : {"arrive VGG-19", "arrive ResNet-50",
                          "arrive AlexNet", "arrive MobileNet"}) {
    const Reply r = command(port, cmd);
    EXPECT_TRUE(r.ok) << cmd << " -> " << r.error;
  }

  // Poll `report` until a background search has been accounted (idle ticks
  // happen between commands; several hundred ms of real idle time is many
  // 50 ms slices).
  std::size_t searches = 0, improvements = 0;
  std::string live;
  for (int tries = 0; tries < 100; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Reply rep = command(port, "report");
    ASSERT_TRUE(rep.ok) << rep.error;
    searches = improvements = 0;
    for (const std::string& l : rep.body) {
      if (l.rfind("background:", 0) == 0) {
        searches = field(l, "searches");
        improvements = field(l, "improvements");
      }
    }
    live = conservation_line(rep.body);
    if (improvements >= 1) break;
  }
  EXPECT_GE(searches, 1u) << "no background search ran in ~5s of idle time";
  EXPECT_GE(improvements, 1u)
      << "background re-search never improved on greedy for VGG-19+ResNet-50";

  // Installs must not disturb stream accounting.
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(field(live, "admitted"), 4u);
  EXPECT_EQ(field(live, "resident"), 4u);
  EXPECT_EQ(field(live, "departures"), 0u);

  // The saved trace contains ONLY the operator's events (installs are not
  // scenario events) — two arrivals, replayable offline.
  const std::string trace = ::testing::TempDir() + "daemon_bg.trace";
  EXPECT_TRUE(command(port, "save-trace " + trace).ok);
  EXPECT_EQ(daemon.shutdown(), 0);

  std::ifstream in(trace);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("arrive VGG-19"), std::string::npos);
  EXPECT_NE(text.find("arrive ResNet-50"), std::string::npos);
  EXPECT_EQ(text.find("install"), std::string::npos);
  const std::string offline = offline_conservation(trace, "--boards 2");
  EXPECT_EQ(offline, live);
}

TEST(DaemonE2E, LongSessionKeepsMemoryFlatAndSavesAByteExactTrace) {
  // 20k commands over one connection: arrivals deal the zoo round-robin,
  // the oldest of 4 resident streams departs before the next arrives, a
  // board fails and recovers now and then, and every 100th command is a
  // `status`. Per-command state must not accumulate in the daemon: its
  // peak RSS may not grow by 2 MiB between command 2k and command 20k.
  DaemonProcess daemon("--boards 2 --background-slice-ms 0");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  TcpStream s = tcp_connect("127.0.0.1", daemon.port());

  constexpr std::size_t kCommands = 20000;
  std::vector<std::string> resident;
  std::size_t next_model = 0, events = 0, rss_at_2k = 0;
  bool board_down = false;
  for (std::size_t i = 0; i < kCommands; ++i) {
    std::string cmd;
    if (i % 100 == 99) {
      cmd = "status";
    } else if (i % 250 == 0) {
      cmd = board_down ? "recover board 1" : "fail board 1";
      board_down = !board_down;
    } else if (resident.size() == 4) {
      cmd = "depart " + resident.front();
      resident.erase(resident.begin());
    } else {
      const std::string name(omniboost::models::model_name(
          omniboost::models::kAllModels[next_model++ %
                                        omniboost::models::kNumModels]));
      cmd = "arrive " + name;
      resident.push_back(name);
    }
    const Reply r = roundtrip(s, cmd);
    ASSERT_TRUE(r.ok) << "command " << i << " (" << cmd << ") -> " << r.error;
    if (cmd != "status") ++events;
    if (i + 1 == 2000) rss_at_2k = daemon.peak_rss_kib();
  }
  ASSERT_GT(rss_at_2k, 0u);
#ifndef OMNIBOOST_TEST_SANITIZED
  const std::size_t rss_at_20k = daemon.peak_rss_kib();
  EXPECT_LT(rss_at_20k, rss_at_2k + 2048)
      << "VmHWM grew from " << rss_at_2k << " KiB to " << rss_at_20k
      << " KiB over 18k commands";
#endif

  const std::string trace = ::testing::TempDir() + "daemon_long.trace";
  const Reply saved = roundtrip(s, "save-trace " + trace);
  ASSERT_TRUE(saved.ok) << saved.error;
  ASSERT_EQ(saved.body.size(), 1u);
  EXPECT_EQ(saved.body[0], "saved " + std::to_string(events) +
                               " events to " + trace);
  s.close();
  EXPECT_EQ(daemon.shutdown(), 0);

  // The journal-backed trace is exactly what the trace writer produces for
  // the scenario it holds.
  std::ifstream in(trace, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const omniboost::workload::Scenario loaded =
      omniboost::workload::load_scenario_file(trace);
  EXPECT_EQ(loaded.size(), events);
  EXPECT_EQ(text, omniboost::workload::serialize_scenario(loaded));
}

TEST(DaemonE2E, OversizedLineDropsTheClientAndTheDaemonServesOn) {
  DaemonProcess daemon("--boards 1 --background-slice-ms 0");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  {
    // 1 MiB with no newline. The daemon stops reading past its 64 KiB line
    // bound, so the flood is written from a second thread while this one
    // waits for the refusal.
    TcpStream s = tcp_connect("127.0.0.1", daemon.port());
    const int fd = s.fd();
    std::thread writer([fd] {
      const std::string flood(1 << 20, 'x');
      std::size_t sent = 0;
      while (sent < flood.size()) {
        const ssize_t n = ::send(fd, flood.data() + sent,
                                 flood.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return;  // the daemon hung up: EPIPE or a reset
        sent += static_cast<std::size_t>(n);
      }
    });
    std::string line;
    EXPECT_EQ(s.recv_line(&line, 10000), TcpStream::RecvStatus::kLine);
    EXPECT_EQ(line, "err line too long");
    writer.join();
  }
  // The next connection is served as if nothing happened.
  const Reply r = command(daemon.port(), "arrive AlexNet");
  EXPECT_TRUE(r.ok) << r.error;
  const Reply status = command(daemon.port(), "status");
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(field(conservation_line(status.body), "admitted"), 1u);
  EXPECT_EQ(daemon.shutdown(), 0);
}

#endif  // OMNIBOOST_CLI_PATH

}  // namespace
