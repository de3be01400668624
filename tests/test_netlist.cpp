// Tests of the netlist language, the process registry, and end-to-end
// execution of parsed systems.
#include <gtest/gtest.h>

#include <algorithm>

#include "util/assert.hpp"

#include "core/netlist_text.hpp"
#include "core/procs.hpp"
#include "core/system.hpp"

namespace wp {
namespace {

const char* kDemo = R"(
# the quickstart system
system demo
process src  counter   start=5 stride=3
process duty dutycycle period=4
process echo identity  reset=0
channel src.out  -> duty.a
channel duty.out -> echo.in
channel echo.out -> duty.b  connection=loopback rs=2
)";

TEST(Netlist, ParsesTheDemoSystem) {
  const ParsedSystem parsed = parse_system(kDemo, default_registry());
  EXPECT_EQ(parsed.name, "demo");
  EXPECT_EQ(parsed.spec.process_names().size(), 3u);
  ASSERT_EQ(parsed.spec.channels().size(), 3u);
  EXPECT_EQ(parsed.spec.channels()[2].connection, "loopback");
  EXPECT_EQ(parsed.spec.channels()[2].relay_stations, 2);
  EXPECT_EQ(parsed.spec.channels()[0].connection, "src-duty");  // default
}

TEST(Netlist, ParsedSystemRunsAndMatchesHandBuilt) {
  const ParsedSystem parsed = parse_system(kDemo, default_registry());

  SystemSpec manual;
  manual.add_process("src", []() {
    return std::make_unique<CounterSource>("src", 5, 3, 0);
  });
  manual.add_process("duty", []() {
    return std::make_unique<DutyCycleProcess>("duty", 4);
  });
  manual.add_process("echo", []() {
    return std::make_unique<IdentityProcess>("echo", 0);
  });
  manual.add_channel("src", "out", "duty", "a");
  manual.add_channel("duty", "out", "echo", "in");
  manual.add_channel("echo", "out", "duty", "b", "loopback");
  manual.set_connection_rs("loopback", 2);

  for (const SystemSpec* spec : {&parsed.spec, static_cast<const SystemSpec*>(&manual)}) {
    ShellOptions wp2;
    wp2.use_oracle = true;
    LidSystem lid = build_lid(*spec, wp2, true);
    for (int i = 0; i < 1000; ++i) lid.network->step();
    EXPECT_NEAR(static_cast<double>(
                    lid.network->stats(lid.shells.at("duty")).firings) /
                    1000.0,
                2.0 / 3.0, 0.01);
  }

  // τ-filtered traces of the two builds must be identical.
  ShellOptions wp2;
  wp2.use_oracle = true;
  LidSystem a = build_lid(parsed.spec, wp2, true);
  LidSystem b = build_lid(manual, wp2, true);
  for (int i = 0; i < 500; ++i) {
    a.network->step();
    b.network->step();
  }
  EXPECT_EQ(a.trace, b.trace);
}

TEST(Netlist, RsDirectiveAfterChannels) {
  const ParsedSystem parsed = parse_system(R"(
process a identity
process b identity
channel a.out -> b.in connection=link
channel b.out -> a.in
rs link 3
)",
                                           default_registry());
  EXPECT_EQ(parsed.spec.channels()[0].relay_stations, 3);
}

TEST(Netlist, RegistryListsTypesAndRejectsDuplicates) {
  ProcessRegistry registry = default_registry();
  const std::vector<std::string> types = registry.types();
  auto listed = [&types](const std::string& type) {
    return std::find(types.begin(), types.end(), type) != types.end();
  };
  EXPECT_TRUE(listed("counter"));
  EXPECT_TRUE(listed("dutycycle"));
  EXPECT_FALSE(listed("frobnicator"));
  EXPECT_GE(types.size(), 7u);
  EXPECT_THROW(registry.add("counter", [](const ProcessParams&) {
    return ProcessFactory{};
  }),
               ContractViolation);
}

TEST(Netlist, ParameterHelpers) {
  ProcessParams params{{"x", "42"}};
  EXPECT_EQ(param_int(params, "x", 0), 42);
  EXPECT_EQ(param_int(params, "missing", 7), 7);
  EXPECT_EQ(param_int_required(params, "x"), 42);
  EXPECT_THROW(param_int_required(params, "missing"), ContractViolation);
}

TEST(Netlist, ErrorsAreLineNumbered) {
  auto expect_error = [](const std::string& src, const std::string& what) {
    try {
      parse_system(src, default_registry());
      FAIL() << "expected failure for: " << src;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_error("frob", "unknown directive");
  expect_error("process a nosuchtype", "unknown process type");
  expect_error("process a counter\nprocess a counter", "duplicate process");
  expect_error("process a counter badparam", "key=value");
  expect_error("process a dutycycle", "missing required parameter");
  expect_error("process a identity\nchannel a.out b.in", "->");
  expect_error("process a identity\nchannel aout -> a.in",
               "<process>.<port>");
  expect_error("process a identity\nchannel a.out -> a.in frob=1",
               "unknown channel option");
  expect_error("process a identity\nrs nope 1", "unknown connection");
  expect_error("# nothing", "no processes");
}

TEST(Netlist, RandomMooreFromText) {
  const ParsedSystem parsed = parse_system(R"(
process m1 randommoore inputs=2 outputs=2 states=3 seed=5
process m2 randommoore inputs=2 outputs=2 states=3 seed=6
channel m1.out0 -> m2.in0
channel m1.out1 -> m2.in1
channel m2.out0 -> m1.in0
channel m2.out1 -> m1.in1 rs=2
)",
                                           default_registry());
  GoldenSim golden(parsed.spec, true);
  for (int i = 0; i < 100; ++i) golden.step();
  ShellOptions wp2;
  wp2.use_oracle = true;
  LidSystem lid = build_lid(parsed.spec, wp2, true);
  for (int i = 0; i < 500; ++i) lid.network->step();
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

}  // namespace
}  // namespace wp
