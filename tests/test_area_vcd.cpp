// Tests of the wrapper-area model (the paper's <1% overhead claim, E5) and
// of the VCD waveform writer.
#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <sstream>

#include "core/area.hpp"
#include "core/network.hpp"
#include "core/procs.hpp"
#include "core/shell.hpp"
#include "core/system.hpp"
#include "core/vcd.hpp"
#include "util/hash.hpp"

namespace wp {
namespace {

TEST(Area, BreakdownSumsToTotal) {
  WrapperGeometry g;
  const WrapperArea a = estimate_wrapper_area(g);
  EXPECT_GT(a.fifo_storage, 0.0);
  EXPECT_GT(a.counters, 0.0);
  EXPECT_NEAR(a.total(),
              a.fifo_storage + a.fifo_control + a.counters + a.synchronizer +
                  a.output_stage + a.oracle_logic,
              1e-9);
}

TEST(Area, MonotoneInEveryGeometryKnob) {
  WrapperGeometry base;
  const double t0 = estimate_wrapper_area(base).total();
  for (auto mutate : std::vector<std::function<void(WrapperGeometry&)>>{
           [](WrapperGeometry& g) { g.num_inputs += 2; },
           [](WrapperGeometry& g) { g.num_outputs += 2; },
           [](WrapperGeometry& g) { g.data_width *= 2; },
           [](WrapperGeometry& g) { g.fifo_depth *= 2; },
           [](WrapperGeometry& g) { g.counter_bits += 4; }}) {
    WrapperGeometry g = base;
    mutate(g);
    EXPECT_GT(estimate_wrapper_area(g).total(), t0);
  }
}

TEST(Area, OracleAddsModestLogic) {
  WrapperGeometry g;
  const double without = estimate_wrapper_area(g).total();
  g.oracle = true;
  const double with = estimate_wrapper_area(g).total();
  EXPECT_GT(with, without);
  // "The effort was minimal": oracle logic well under 10% of the wrapper.
  EXPECT_LT((with - without) / without, 0.10);
}

TEST(Area, PaperOverheadClaimHolds) {
  // §1: wrappers synthesized at 130 nm cost < 1% of a 100-kgate IP. Our
  // NAND2 estimate is deliberately conservative, so assert the claim on a
  // lean case-study interface (2 channels each way, 16-bit data, depth-2
  // FIFOs, 4-bit lag counters) and the same order of magnitude (< 3%) on a
  // fat one (3x3 channels, 32-bit data).
  WrapperGeometry lean;
  lean.num_inputs = 2;
  lean.num_outputs = 2;
  lean.data_width = 16;
  lean.fifo_depth = 2;
  lean.counter_bits = 4;
  lean.oracle = true;
  EXPECT_LT(wrapper_overhead_ratio(lean, 100000.0), 0.01);

  WrapperGeometry fat;
  fat.num_inputs = 3;
  fat.num_outputs = 3;
  fat.data_width = 32;
  fat.fifo_depth = 2;
  fat.oracle = true;
  EXPECT_LT(wrapper_overhead_ratio(fat, 100000.0), 0.03);
}

TEST(Area, RelayStationIsTiny) {
  EXPECT_LT(estimate_relay_station_area(32) / 100000.0, 0.01);
  EXPECT_GT(estimate_relay_station_area(64),
            estimate_relay_station_area(16));
}

TEST(Area, RejectsBadGeometry) {
  WrapperGeometry g;
  g.num_inputs = 0;
  EXPECT_THROW(estimate_wrapper_area(g), ContractViolation);
  WrapperGeometry g2;
  g2.fifo_depth = 0;
  EXPECT_THROW(estimate_wrapper_area(g2), ContractViolation);
  EXPECT_THROW(wrapper_overhead_ratio(WrapperGeometry{}, 0.0),
               ContractViolation);
}

TEST(Vcd, EmitsHeaderAndChanges) {
  std::ostringstream os;
  Network net;
  const WireId w = net.make_wire("bus");
  VcdWriter vcd(os, net, "top");
  vcd.add_wire(w);
  vcd.finalize_header();

  net.wire(w).drive(Token::make(5));
  vcd.sample(0);
  vcd.sample(1);  // no change: nothing emitted
  net.wire(w).drive(Token::tau());
  net.wire(w).stop = true;
  vcd.sample(2);

  const std::string text = os.str();
  EXPECT_NE(text.find("$scope module top $end"), std::string::npos);
  EXPECT_NE(text.find("bus_data"), std::string::npos);
  EXPECT_NE(text.find("bus_valid"), std::string::npos);
  EXPECT_NE(text.find("bus_stop"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_EQ(text.find("#1"), std::string::npos);  // dedup quiet cycle
  EXPECT_NE(text.find("#2"), std::string::npos);
}

TEST(Vcd, LifecycleContractsEnforced) {
  std::ostringstream os;
  Network net;
  VcdWriter vcd(os, net);
  EXPECT_THROW(vcd.add_wire(0), ContractViolation);  // no such wire
  EXPECT_THROW(vcd.sample(0), ContractViolation);    // before header
  vcd.finalize_header();
  EXPECT_THROW(vcd.finalize_header(), ContractViolation);
  const WireId w = net.make_wire("w");
  EXPECT_THROW(vcd.add_wire(w), ContractViolation);  // after header
}

TEST(Vcd, TracksAShellNetwork) {
  std::ostringstream os;
  Network net;
  const WireId in = net.make_wire("in");
  const WireId out = net.make_wire("out");
  auto* shell = net.add_shell(std::make_unique<Shell>(
      "id", std::make_unique<IdentityProcess>("id"), ShellOptions{}));
  shell->connect_input(0, in, 1);
  shell->add_output_wire(0, out);

  VcdWriter vcd(os, net, "lid");
  vcd.add_wire(in);
  vcd.add_wire(out);
  vcd.finalize_header();
  for (Cycle c = 0; c < 5; ++c) {
    net.wire(in).drive(Token::make(10 + c));
    net.step();
    vcd.sample(c);
  }
  EXPECT_GT(os.str().size(), 100u);
}

TEST(Vcd, RingWaveformPinned) {
  // A 4-process ring with 3 relay stations, every wire recorded for 64
  // cycles under its network name. The text must not move: it pins the
  // wire-name table, the id-based sampler and the kernel's wire activity.
  SystemSpec spec;
  for (int i = 0; i < 4; ++i)
    spec.add_process("p" + std::to_string(i), [i]() {
      return std::make_unique<IdentityProcess>("p" + std::to_string(i),
                                               static_cast<Word>(i + 1));
    });
  for (int i = 0; i < 4; ++i)
    spec.add_channel("p" + std::to_string(i), "out",
                     "p" + std::to_string((i + 1) % 4), "in");
  spec.set_connection_rs("p0-p1", 2);
  spec.set_connection_rs("p2-p3", 1);
  LidSystem lid = build_lid(spec, ShellOptions{}, false);
  ASSERT_EQ(lid.network->wire_count(), 7u);

  std::ostringstream os;
  VcdWriter vcd(os, *lid.network, "ring");
  for (WireId w = 0; w < lid.network->wire_count(); ++w) vcd.add_wire(w);
  vcd.finalize_header();
  for (Cycle c = 0; c < 64; ++c) {
    lid.network->step();
    vcd.sample(c);
  }
  const std::string text = os.str();
  EXPECT_NE(text.find("$var wire 64 ! p0.out->p1.in#0_data $end"),
            std::string::npos);
  EXPECT_EQ(text.size(), 28022u);
  EXPECT_EQ(hash_string(text), 7746884375970697562ULL);
}

}  // namespace
}  // namespace wp
