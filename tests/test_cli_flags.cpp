// The flag meta-test: every flag `pushpull help` prints, passed to every
// mode of the CLI.
//
// Each mode has a small base command and one with its switches on. Every
// listed flag is added to each base with a sample value from the table
// below (a flag the base already carries gets the sample value instead).
// A case passes when the flag
//   - is rejected: exit 1 with `unknown option` naming it,
//   - changes the run: its exit status, stdout or a file it writes differs
//     from the base's, or
//   - is on the short output-neutral list, each entry with its reason.
// A flag the run reads but ignores fails, so a new one cannot hide. The
// wall-clock serve and loadtest reports vary from run to run, so there
// only accept-or-reject is checked. Each case runs in its own directory,
// and each mode is its own TEST, so ctest -j never shares a file.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One run: exit status, stdout, stderr and every file it wrote.
struct Run {
  int status = -1;
  std::string out;
  std::string err;
  std::map<std::string, std::string> files;
};

Run run_in(const fs::path& dir, const std::vector<std::string>& args) {
  const fs::path work = dir / "w";
  fs::create_directories(work / "d");  // where --dir d writes
  std::string cmd = "cd '" + work.string() + "' && '" + PUSHPULL_CLI_PATH + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " > '" + (dir / "stdout").string() + "' 2> '" +
         (dir / "stderr").string() + "'";
  Run run;
  const int raw = std::system(cmd.c_str());
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  run.out = slurp(dir / "stdout");
  run.err = slurp(dir / "stderr");
  for (const auto& entry : fs::recursive_directory_iterator(work)) {
    if (entry.is_regular_file()) {
      run.files[fs::relative(entry.path(), work).string()] =
          slurp(entry.path());
    }
  }
  return run;
}

/// True when `err` is the parser's unknown-option error and lists --flag.
bool names_unknown(const std::string& err, const std::string& flag) {
  const std::size_t list = err.find("unknown option ");
  if (list == std::string::npos) return false;
  return err.find("--" + flag + ",", list) != std::string::npos ||
         err.find("--" + flag + " (", list) != std::string::npos;
}

std::vector<std::string> split(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  for (std::string token; in >> token;) out.push_back(token);
  return out;
}

// The switches of the trace-driven modes, tuned so that every flag they
// enable moves the printed numbers (a slow ladder lets --shed act first).
const std::string kSwitched =
    "--bandwidth 4 --fault --fault-p-gb 0.4 --queue-cap 20 --crash-rate 0.02 "
    "--recovery warm --ladder --ladder-interval 50 --scenario diurnal";
const std::string kLive =
    "--fault --queue-cap 8 --mean-deadline 3 --deadline-spike-factor 0.5 "
    "--deadline-spike-duration 1";

/// A non-default sample value per flag; "" marks a switch. {rec} names a
/// fixture the test creates.
const std::map<std::string, std::string> kSamples = {
    {"accelerated", ""},
    {"alpha", "0.9"},
    {"analytic", ""},
    {"bandwidth", "1.5"},
    {"channels", "3"},
    {"chaos", ""},
    {"classes", "2"},
    {"clients", "7"},
    {"crash-downtime", "5"},
    {"crash-rate", "0.1"},
    {"csv", ""},
    {"cutoff", "5"},
    {"deadline-scale", "2,1,0.5"},
    {"deadline-spike-duration", "2"},
    {"deadline-spike-factor", "0.2"},
    {"deadline-spike-start", "1"},
    {"demand", "3"},
    {"dir", "d"},
    {"drain-after", "1"},
    {"duration", "3"},
    {"epoch", "100"},
    {"fault", ""},
    {"fault-backoff", "3"},
    {"fault-backoff-mult", "3"},
    {"fault-corrupt-bad", "0.9"},
    {"fault-corrupt-good", "0.2"},
    {"fault-p-bg", "0.05"},
    {"fault-p-gb", "0.5"},
    {"fault-retries", "0"},
    {"from-trace", "{rec}"},
    {"gap-bound", "1000"},
    {"half-life", "5"},
    {"hedge-after", "0.5"},
    {"horizon", "100"},
    {"in", "{rec}"},
    {"interval", "50"},
    {"items", "50"},
    {"jobs", "3"},
    {"ladder", ""},
    {"ladder-capacity", "2"},
    {"ladder-cutoff-step", "3"},
    {"ladder-interval", "1"},
    {"max-crashes", "1"},
    {"mean-deadline", "2"},
    {"no-replay-check", ""},
    {"out", "o.txt"},
    {"pacers", "2"},
    {"patience", "5"},
    {"policy", "fcfs"},
    {"progress", "p.jsonl"},
    {"queue-cap", "10"},
    {"queue-capacity", "2"},
    {"rate", "9"},
    {"record", "x.svj"},
    {"recovery", "cold"},
    {"report", "r.md"},
    {"reps", "3"},
    {"requests", "400"},
    {"rerequest-timeout", "2"},
    {"resume", ""},  // replicate's switch; serve's value is {rec} below
    {"retry", "0.5"},
    {"scenario", "commuter"},
    {"scenario-intensity", "2"},
    {"seed", "9"},
    {"shed", "priority"},
    {"shift", "7"},
    {"slot", "0.3"},
    {"snapshot-interval", "7"},
    {"spike-duration", "50"},
    {"spike-factor", "3"},
    {"spike-start", "10"},
    {"step", "20"},
    {"storm-spread", "1"},
    {"sync-every", "2"},
    {"target-qps", "9"},
    {"theta", "1.1"},
    {"think-rate", "0.2"},
    {"time-scale", "300"},
    {"trace", "e2.jsonl"},
    {"trace-cap", "5"},
    {"trace-categories", "push"},
};

/// (mode, flag) pairs a run reads without changing its output.
const std::map<std::pair<std::string, std::string>, const char*> kNeutral = {
    {{"replicate", "jobs"}, "worker count; replications merge in index order"},
    {{"chaos", "jobs"}, "worker count; replications merge in index order"},
    {{"replay", "jobs"}, "worker count; reps merge in rep order"},
    {{"simulate", "demand"},
     "without --bandwidth a demand reaches only the trace; the engine still "
     "rejects a non-finite one"},
    {{"replicate", "demand"},
     "without --bandwidth a demand reaches only the trace; the engine still "
     "rejects a non-finite one"},
    {{"chaos", "demand"},
     "without --bandwidth a demand reaches only the trace; the engine still "
     "rejects a non-finite one"},
    {{"loadtest --accelerated", "demand"},
     "the live server has no bandwidth limit: a demand reaches only the "
     "trace and the sv2 header; the engine still rejects a non-finite one"},
    {{"replicate", "ladder-capacity"},
     "--queue-cap bounds the queue, which then is the ladder's reference"},
    {{"chaos", "ladder-capacity"},
     "--queue-cap bounds the queue, which then is the ladder's reference"},
    {{"trace", "ladder-capacity"},
     "--queue-cap bounds the queue, which then is the ladder's reference"},
};

/// Every flag `pushpull help` prints.
std::set<std::string> help_flags(const fs::path& dir) {
  const Run help = run_in(dir, {"help"});
  EXPECT_EQ(help.status, 0);
  std::set<std::string> flags;
  const std::regex flag("--([a-z][a-z-]*[a-z])");
  for (std::sregex_iterator it(help.out.begin(), help.out.end(), flag), end;
       it != end; ++it) {
    flags.insert((*it)[1]);
  }
  return flags;
}

std::string substitute(std::string s,
                       const std::map<std::string, std::string>& fixtures) {
  for (const auto& [name, value] : fixtures) {
    for (std::size_t at; (at = s.find(name)) != std::string::npos;) {
      s.replace(at, name.size(), value);
    }
  }
  return s;
}

/// Runs every help flag against each base of `mode`.
void check_mode(const std::string& mode, const std::vector<std::string>& bases,
                bool wall_clock = false) {
  std::string stem = "cli_flags_" + mode;
  for (char& c : stem) {
    if (c == ' ' || c == '-') c = '_';
  }
  const fs::path root = fs::absolute(stem);
  fs::remove_all(root);
  const std::map<std::string, std::string> fixtures = {
      {"{rec}", (root / "rec.svj").string()},
  };
  ASSERT_EQ(run_in(root / "fixture",
                   {"loadtest", "--accelerated", "--duration", "5",
                    "--record", fixtures.at("{rec}")})
                .status,
            0);
  const std::set<std::string> flags = help_flags(root / "help");
  for (const std::string& flag : flags) {
    ASSERT_TRUE(kSamples.contains(flag))
        << "pushpull help lists --" << flag << ", which has no sample value";
  }

  std::size_t case_no = 0;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const std::vector<std::string> base = split(substitute(bases[b], fixtures));
    const Run ref = run_in(root / ("base" + std::to_string(b)), base);
    ASSERT_EQ(ref.status, 0) << bases[b] << "\n" << ref.err;
    for (const std::string& flag : flags) {
      std::string value = kSamples.at(flag);
      if (flag == "resume" && mode.rfind("serve", 0) == 0) value = "{rec}";
      value = substitute(value, fixtures);
      std::vector<std::string> args = base;
      const auto at = std::find(args.begin(), args.end(), "--" + flag);
      if (at == args.end()) {
        args.push_back("--" + flag);
        if (!value.empty()) args.push_back(value);
      } else if (value.empty() || at + 1 == args.end() ||
                 (at + 1)->rfind("--", 0) == 0 || *(at + 1) == value) {
        continue;  // a switch the base has on, or the base's own value
      } else {
        *(at + 1) = value;
      }
      std::string cmd = "pushpull";
      for (const std::string& a : args) cmd += " " + a;

      const Run run = run_in(root / ("case" + std::to_string(case_no++)), args);
      const bool rejected = run.status == 1 && names_unknown(run.err, flag);
      if (wall_clock) {
        EXPECT_TRUE(run.status == 0 ||
                    (run.status == 1 &&
                     run.err.find("unknown option") != std::string::npos))
            << cmd << "\n" << run.err;
        continue;
      }
      const bool changed = run.status != ref.status || run.out != ref.out ||
                           run.files != ref.files;
      EXPECT_TRUE(rejected || changed || kNeutral.contains({mode, flag}))
          << cmd << "\nreads --" << flag
          << " without changing the run; reject it, or list it as "
             "output-neutral with a reason\n"
          << run.err;
    }
  }
  fs::remove_all(root);
}

}  // namespace

TEST(CliFlags, Simulate) {
  check_mode("simulate",
             {"simulate --requests 2000",
              "simulate --requests 3000 " + kSwitched +
                  " --trace t.jsonl --report r.md"});
}

TEST(CliFlags, Optimize) {
  check_mode("optimize",
             {"optimize --requests 2000 --step 50",
              "optimize --requests 2000 --step 50 --scenario flashcrowd "
              "--trace t.jsonl",
              "optimize --analytic --step 50 --trace t.jsonl"});
}

TEST(CliFlags, Model) {
  check_mode("model", {"model", "model --cutoff 20 --csv"});
}

TEST(CliFlags, Replicate) {
  check_mode("replicate",
             {"replicate --requests 2000 --reps 2",
              "replicate --requests 3000 --reps 2 " + kSwitched +
                  " --trace t.jsonl"});
}

TEST(CliFlags, Adaptive) {
  const std::string drift =
      "adaptive --requests 3000 --theta 1.2 --interval 10 --epoch 50 "
      "--shift 40";
  check_mode("adaptive", {drift, drift + " --csv"});
}

TEST(CliFlags, Multichannel) {
  check_mode("multichannel",
             {"multichannel --requests 2000",
              "multichannel --requests 2000 --scenario flashcrowd"});
}

TEST(CliFlags, Uplink) {
  check_mode("uplink", {"uplink --requests 2000",
                        "uplink --requests 2000 --scenario flashcrowd"});
}

TEST(CliFlags, Closedloop) {
  check_mode("closedloop", {"closedloop --horizon 200",
                            "closedloop --horizon 200 --clients 10 --csv"});
}

TEST(CliFlags, Chaos) {
  check_mode("chaos", {"chaos --requests 2000 --reps 1",
                       "chaos --requests 3000 --reps 1 " + kSwitched +
                           " --spike-factor 2 --spike-duration 50 "
                           "--out c.json"});
}

TEST(CliFlags, ServeWallClock) {
  check_mode("serve",
             {"serve --duration 2 --time-scale 1000",
              "serve --duration 2 --time-scale 1000 --ladder " + kLive +
                  " --record r.svj --trace t.jsonl --scenario flashcrowd"},
             /*wall_clock=*/true);
}

TEST(CliFlags, ServeChaos) {
  check_mode("serve --chaos",
             {"serve --chaos --reps 1 --duration 5",
              "serve --chaos --reps 1 --duration 5 " + kLive +
                  " --scenario flashcrowd --out c.txt"});
}

TEST(CliFlags, ServeResume) {
  check_mode("serve --resume",
             {"serve --resume {rec}", "serve --resume {rec} --record r.svj"});
}

TEST(CliFlags, LoadtestWallClock) {
  check_mode("loadtest",
             {"loadtest --duration 2 --time-scale 1000",
              "loadtest --duration 2 --time-scale 1000 --ladder " + kLive +
                  " --record r.svj --trace t.jsonl --scenario flashcrowd"},
             /*wall_clock=*/true);
}

TEST(CliFlags, LoadtestAccelerated) {
  check_mode("loadtest --accelerated",
             {"loadtest --accelerated --duration 5",
              "loadtest --accelerated --duration 5 --ladder " + kLive +
                  " --record r.svj --trace t.jsonl --scenario flashcrowd",
              "loadtest --accelerated --from-trace {rec} --record r.svj "
              "--trace t.jsonl"});
}

TEST(CliFlags, Replay) {
  check_mode("replay", {"replay {rec}", "replay {rec} --reps 2 --out o.txt"});
}

TEST(CliFlags, Trace) {
  check_mode("trace", {"trace --out t.csv --requests 2000",
                       "trace --out t.csv --requests 3000 --trace e.jsonl " +
                           kSwitched});
}
