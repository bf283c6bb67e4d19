// Tests for the command-line argument parser used by the pushpull tool.
#include <gtest/gtest.h>

#include "exp/cli.hpp"

namespace pushpull::exp {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"simulate", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "simulate");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParser, KeyValueOptions) {
  const auto args = parse({"simulate", "--theta", "0.6", "--cutoff", "40"});
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.0), 0.6);
  EXPECT_EQ(args.get_size("cutoff", 0), 40u);
  EXPECT_EQ(args.positional().size(), 1u);
}

TEST(ArgParser, BooleanFlags) {
  const auto args = parse({"optimize", "--analytic", "--csv"});
  EXPECT_TRUE(args.has("analytic"));
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(ArgParser, FlagFollowedByOption) {
  const auto args = parse({"--csv", "--theta", "1.4"});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.0), 1.4);
}

TEST(ArgParser, DefaultsWhenAbsent) {
  const auto args = parse({"simulate"});
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.33), 0.33);
  EXPECT_EQ(args.get_size("cutoff", 7), 7u);
  EXPECT_EQ(args.get_u64("seed", 9), 9u);
  EXPECT_EQ(args.get_string("policy", "importance"), "importance");
}

TEST(ArgParser, StringValues) {
  const auto args = parse({"--policy", "rxw", "--out", "file.csv"});
  EXPECT_EQ(args.get_string("policy", ""), "rxw");
  EXPECT_EQ(args.get_string("out", ""), "file.csv");
}

TEST(ArgParser, RejectsMalformedNumbers) {
  const auto args = parse({"--theta", "abc", "--cutoff", "xyz"});
  EXPECT_THROW((void)args.get_double("theta", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_size("cutoff", 0), std::invalid_argument);
}

TEST(ArgParser, RejectsBareDoubleDash) {
  std::vector<const char*> argv = {"prog", "--"};
  EXPECT_THROW(ArgParser(2, argv.data()), std::invalid_argument);
}

TEST(ArgParser, RejectsRepeatedOption) {
  // Silently keeping either occurrence would reproduce the wrong run;
  // the diagnostic must name the offending flag.
  try {
    (void)parse({"--theta", "0.2", "--theta", "0.9"});
    FAIL() << "duplicate --theta accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("--theta"), std::string::npos);
  }
}

TEST(ArgParser, RejectsRepeatedBooleanFlag) {
  EXPECT_THROW((void)parse({"--csv", "--csv"}), std::logic_error);
}

TEST(ArgParser, RepeatCheckDistinguishesFlags) {
  // Different flags never collide — only true repeats are rejected.
  const auto args = parse({"--theta", "0.2", "--alpha", "0.9"});
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.0), 0.2);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.9);
}

TEST(ArgParser, NegativeNumbersAsValues) {
  // A negative number after an option key is its value, not a new flag.
  const auto args = parse({"--offset", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -3.5);
}

TEST(ArgParser, GetJobsDefaultsToHardwareConcurrency) {
  const auto args = parse({"replicate"});
  EXPECT_GE(args.get_jobs("jobs"), 1u);
}

TEST(ArgParser, GetJobsExplicitValue) {
  const auto args = parse({"replicate", "--jobs", "4"});
  EXPECT_EQ(args.get_jobs("jobs"), 4u);
}

TEST(ArgParser, GetJobsRejectsExplicitZero) {
  // Auto is requested by *omitting* the flag; an explicit --jobs 0 is a
  // mistake and must fail loudly rather than silently meaning "auto".
  const auto args = parse({"replicate", "--jobs", "0"});
  try {
    (void)args.get_jobs("jobs");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
  }
}

TEST(ArgParser, GetJobsRejectsGarbage) {
  const auto args = parse({"replicate", "--jobs", "lots"});
  EXPECT_THROW((void)args.get_jobs("jobs"), std::invalid_argument);
}

TEST(ArgParser, GetJobsRejectsMissingValue) {
  // `--jobs` with no value parses as a boolean flag; get_jobs must reject
  // the empty value instead of defaulting.
  const auto args = parse({"replicate", "--jobs"});
  EXPECT_THROW((void)args.get_jobs("jobs"), std::invalid_argument);
}

TEST(ArgParser, RejectsTrailingGarbageOnIntegers) {
  // std::stoull would silently parse "12abc" as 12; the parser must not.
  const auto args = parse({"--cutoff", "12abc"});
  EXPECT_THROW((void)args.get_size("cutoff", 0), std::invalid_argument);
}

TEST(ArgParser, RejectsNegativeCounts) {
  // std::stoull wraps "-5" to a huge unsigned value; the parser must not.
  const auto args = parse({"--cutoff", "-5"});
  EXPECT_THROW((void)args.get_size("cutoff", 0), std::invalid_argument);
}

TEST(ArgParser, RejectsTrailingGarbageOnDoubles) {
  const auto args = parse({"--theta", "0.6x"});
  EXPECT_THROW((void)args.get_double("theta", 0.0), std::invalid_argument);
}

TEST(ArgParser, RequireKnownAcceptsListedOptions) {
  const auto args = parse({"simulate", "--theta", "0.6", "--csv"});
  EXPECT_NO_THROW(args.require_known({"theta", "csv"}));
  EXPECT_NO_THROW(args.require_known({"theta"}, {"csv"}));
}

TEST(ArgParser, RequireKnownRejectsUnknownOption) {
  const auto args = parse({"simulate", "--cutof", "40"});
  try {
    args.require_known({"cutoff", "theta"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--cutof"), std::string::npos);
  }
}

TEST(ArgParser, EveryAccessorMarksItsKeyRead) {
  const auto args = parse(
      {"replay", "in.svj", "--s", "x", "--d", "1.5", "--z", "2", "--u", "3",
       "--pd", "4", "--nd", "0", "--pu", "5", "--jobs", "2", "--csv"});
  (void)args.get_positional(1, "");
  (void)args.get_string("s", "");
  (void)args.get_double("d", 0.0);
  (void)args.get_size("z", 0);
  (void)args.get_u64("u", 0);
  (void)args.get_positive_double("pd", 1.0);
  (void)args.get_nonnegative_double("nd", 1.0);
  (void)args.get_positive_u64("pu", 1);
  (void)args.get_jobs("jobs");
  EXPECT_TRUE(args.get_flag("csv"));
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(ArgParser, ReadingAnAbsentKeyIsFine) {
  const auto args = parse({"simulate"});
  EXPECT_EQ(args.get_positional(0, ""), "simulate");
  EXPECT_EQ(args.get_positional(1, "none"), "none");
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.6), 0.6);
  EXPECT_FALSE(args.get_flag("csv"));
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(ArgParser, RejectUnreadNamesEveryUnreadOptionInKeyOrder) {
  const auto args = parse(
      {"simulate", "--zeta", "1", "--alpha", "2", "--mid", "--read", "3"});
  (void)args.get_positional(0, "");
  (void)args.get_size("read", 0);
  EXPECT_TRUE(args.has("zeta"));  // a query, not a read
  try {
    args.reject_unread();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown option --alpha, --mid, --zeta (run with no "
                 "arguments for usage)");
  }
}

TEST(ArgParser, FlagWithAValueThrowsNamingFlagAndValue) {
  const auto args = parse({"simulate", "--fault", "0"});
  try {
    (void)args.get_flag("fault");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fault"), std::string::npos) << what;
    EXPECT_NE(what.find("'0'"), std::string::npos) << what;
  }
}

TEST(ArgParser, RejectUnreadThrowsOnAnUnreadPositional) {
  const auto args = parse({"replay", "a.svj", "b.svj"});
  EXPECT_EQ(args.get_positional(0, ""), "replay");
  EXPECT_EQ(args.get_positional(1, ""), "a.svj");
  try {
    args.reject_unread();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'b.svj'"), std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, PositiveDoubleReturnsFallbackWhenAbsent) {
  const auto args = parse({"loadtest"});
  EXPECT_DOUBLE_EQ(args.get_positive_double("duration", 50.0), 50.0);
}

TEST(ArgParser, PositiveDoubleAcceptsPositiveValues) {
  const auto args = parse({"loadtest", "--duration", "12.5"});
  EXPECT_DOUBLE_EQ(args.get_positive_double("duration", 50.0), 12.5);
}

TEST(ArgParser, PositiveDoubleRejectsZeroNegativeAndNonFinite) {
  for (const char* bad : {"0", "0.0", "-3", "-0.25", "inf", "nan"}) {
    const auto args = parse({"loadtest", "--duration", bad});
    EXPECT_THROW((void)args.get_positive_double("duration", 50.0),
                 std::invalid_argument)
        << "value: " << bad;
  }
}

TEST(ArgParser, PositiveDoubleRejectsGarble) {
  for (const char* bad : {"abc", "12abc", ""}) {
    const auto args = parse({"loadtest", "--duration", bad});
    EXPECT_THROW((void)args.get_positive_double("duration", 50.0),
                 std::invalid_argument)
        << "value: '" << bad << "'";
  }
}

TEST(ArgParser, PositiveDoubleErrorsAreLogicErrors) {
  // The CLI's catch-all handles std::exception, but callers that want to
  // distinguish usage errors from runtime failures catch std::logic_error;
  // std::invalid_argument IS-A std::logic_error.
  const auto args = parse({"loadtest", "--target-qps", "-1"});
  EXPECT_THROW((void)args.get_positive_double("target-qps", 5.0),
               std::logic_error);
}

TEST(ArgParser, PositiveDoubleNamesTheFlagAndValue) {
  const auto args = parse({"loadtest", "--target-qps", "0"});
  try {
    (void)args.get_positive_double("target-qps", 5.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--target-qps"), std::string::npos);
    EXPECT_NE(what.find("'0'"), std::string::npos);
  }
}

TEST(ArgParser, NonnegativeDoubleReturnsFallbackWhenAbsent) {
  const auto args = parse({"chaos"});
  EXPECT_DOUBLE_EQ(args.get_nonnegative_double("spike-start", 0.0), 0.0);
}

TEST(ArgParser, NonnegativeDoubleAcceptsZeroAndPositive) {
  const auto zero = parse({"chaos", "--spike-start", "0"});
  EXPECT_DOUBLE_EQ(zero.get_nonnegative_double("spike-start", 7.0), 0.0);
  const auto positive = parse({"chaos", "--spike-start", "250.5"});
  EXPECT_DOUBLE_EQ(positive.get_nonnegative_double("spike-start", 7.0), 250.5);
}

TEST(ArgParser, NonnegativeDoubleRejectsNegativeNonFiniteAndGarble) {
  for (const char* bad : {"-3", "-0.25", "inf", "nan", "abc", "12abc", ""}) {
    const auto args = parse({"chaos", "--spike-duration", bad});
    EXPECT_THROW((void)args.get_nonnegative_double("spike-duration", 0.0),
                 std::invalid_argument)
        << "value: '" << bad << "'";
  }
}

TEST(ArgParser, NonnegativeDoubleNamesTheFlagAndValue) {
  const auto args = parse({"chaos", "--spike-duration", "-5"});
  try {
    (void)args.get_nonnegative_double("spike-duration", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--spike-duration"), std::string::npos);
    EXPECT_NE(what.find("'-5'"), std::string::npos);
  }
}

TEST(ArgParser, PositiveU64ReturnsFallbackWhenAbsent) {
  const auto args = parse({"loadtest"});
  EXPECT_EQ(args.get_positive_u64("pacers", 2), 2u);
}

TEST(ArgParser, PositiveU64AcceptsPositiveIntegers) {
  const auto args = parse({"loadtest", "--pacers", "8"});
  EXPECT_EQ(args.get_positive_u64("pacers", 1), 8u);
}

TEST(ArgParser, PositiveU64RejectsZeroSignsAndGarble) {
  for (const char* bad : {"0", "-1", "+4", "abc", "12abc", "3.5", ""}) {
    const auto args = parse({"loadtest", "--pacers", bad});
    EXPECT_THROW((void)args.get_positive_u64("pacers", 1),
                 std::logic_error)
        << "value: '" << bad << "'";
  }
}

}  // namespace
}  // namespace pushpull::exp
