#include "util/config.hpp"

#include <gtest/gtest.h>

namespace tsn::util {
namespace {

TEST(ConfigTest, FromArgs) {
  const char* argv[] = {"prog", "seed=42", "rounds=24", "rate=2.5", "verbose=true"};
  Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get_int("seed", 0), 42);
  EXPECT_EQ(cfg.get_int("rounds", 0), 24);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
}

TEST(ConfigTest, Defaults) {
  Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cfg.get_string("missing", "x"), "x");
  EXPECT_FALSE(cfg.get_bool("missing", false));
}

TEST(ConfigTest, BadSyntaxThrows) {
  const char* argv[] = {"prog", "novalue"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
  const char* argv2[] = {"prog", "=x"};
  EXPECT_THROW(Config::from_args(2, argv2), std::invalid_argument);
}

TEST(ConfigTest, BoolVariants) {
  Config cfg;
  cfg.set("a", "1");
  cfg.set("b", "off");
  cfg.set("c", "maybe");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_THROW(cfg.get_bool("c", false), std::invalid_argument);
}

TEST(ConfigTest, NumbersMustParseWhole) {
  Config cfg;
  cfg.set("seed", "garbage");
  cfg.set("rounds", "12abc");
  cfg.set("rate", "");
  cfg.set("threads", "0.5");
  EXPECT_THROW(cfg.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("seed", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("rounds", 0), std::invalid_argument); // not 12
  EXPECT_THROW(cfg.get_double("rounds", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("rate", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("threads", 0), std::invalid_argument); // not 0
  EXPECT_DOUBLE_EQ(cfg.get_double("threads", 0.0), 0.5);
}

TEST(ConfigTest, NumberErrorNamesTheKey) {
  Config cfg;
  cfg.set("seed", "garbage");
  try {
    cfg.get_int("seed", 1);
    FAIL() << "garbage parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos) << e.what();
  }
}

TEST(ConfigTest, OutOfRangeNumbersThrow) {
  Config cfg;
  cfg.set("big", "99999999999999999999");
  cfg.set("huge", "1e999");
  cfg.set("min", "-9223372036854775808");
  EXPECT_THROW(cfg.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("huge", 0.0), std::invalid_argument);
  EXPECT_EQ(cfg.get_int("min", 0), INT64_MIN);
  EXPECT_DOUBLE_EQ(cfg.get_double("big", 0.0), 1e20);
  cfg.set("seeds", "0");
  EXPECT_THROW(cfg.get_int_at_least("seeds", 1, 1), std::invalid_argument);
  EXPECT_EQ(cfg.get_int_at_least("seeds", 1, 0), 0);
  EXPECT_EQ(cfg.get_int_at_least("missing", 4, 2), 4);
}

TEST(ConfigTest, UnreadKeyIsRejectedByName) {
  const char* argv[] = {"prog", "seed=3", "horizn=1m", "log=warn"};
  Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("seed", 1), 3);
  EXPECT_TRUE(cfg.has("log"));
  EXPECT_EQ(cfg.get_string("horizon", "10m"), "10m"); // the misspelt key does not count
  try {
    cfg.reject_unread();
    FAIL() << "horizn accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'horizn'"), std::string::npos) << e.what();
  }
  cfg.get_string("horizn");
  EXPECT_NO_THROW(cfg.reject_unread());
}

TEST(ConfigTest, WhitespaceTrimmed) {
  const char* argv[] = {"prog", " key = value "};
  Config cfg = Config::from_args(2, argv);
  EXPECT_EQ(cfg.get_string("key"), "value");
}

} // namespace
} // namespace tsn::util
