#include "core/vcd.hpp"

#include <bitset>

#include "util/assert.hpp"

namespace wp {

VcdWriter::VcdWriter(std::ostream& os, const Network& network,
                     std::string module)
    : os_(os), network_(network), module_(std::move(module)) {}

std::string VcdWriter::make_id(std::size_t index) {
  // Printable VCD identifier characters: '!' (33) .. '~' (126).
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return id;
}

void VcdWriter::add_wire(WireId wire, std::string display_name) {
  WP_REQUIRE(!header_done_, "add_wire after finalize_header");
  Entry e;
  e.wire = wire;
  e.name = display_name.empty() ? network_.wire_name(wire)
                                : std::move(display_name);
  if (e.name.empty()) e.name = "wire" + std::to_string(entries_.size());
  for (char& c : e.name)
    if (c == ' ') c = '_';
  e.id_value = make_id(next_id_++);
  e.id_valid = make_id(next_id_++);
  e.id_stop = make_id(next_id_++);
  entries_.push_back(std::move(e));
}

void VcdWriter::finalize_header() {
  WP_REQUIRE(!header_done_, "finalize_header called twice");
  os_ << "$timescale 1 ns $end\n$scope module " << module_ << " $end\n";
  for (const auto& e : entries_) {
    os_ << "$var wire 64 " << e.id_value << ' ' << e.name << "_data $end\n";
    os_ << "$var wire 1 " << e.id_valid << ' ' << e.name << "_valid $end\n";
    os_ << "$var wire 1 " << e.id_stop << ' ' << e.name << "_stop $end\n";
  }
  os_ << "$upscope $end\n$enddefinitions $end\n";
  header_done_ = true;
}

void VcdWriter::sample(Cycle cycle) {
  WP_REQUIRE(header_done_, "sample before finalize_header");
  bool stamped = false;
  auto stamp = [&] {
    if (!stamped) {
      os_ << '#' << cycle << '\n';
      stamped = true;
    }
  };
  for (auto& e : entries_) {
    const Wire& wire = network_.wire(e.wire);
    const int valid = wire.valid ? 1 : 0;
    const int stop = wire.stop ? 1 : 0;
    const Word value = wire.valid ? wire.value : 0;
    if (valid != e.last_valid) {
      stamp();
      os_ << valid << e.id_valid << '\n';
      e.last_valid = valid;
    }
    if (stop != e.last_stop) {
      stamp();
      os_ << stop << e.id_stop << '\n';
      e.last_stop = stop;
    }
    if (value != e.last_value) {
      stamp();
      os_ << 'b' << std::bitset<64>(value).to_string() << ' ' << e.id_value
          << '\n';
      e.last_value = value;
    }
  }
}

}  // namespace wp
