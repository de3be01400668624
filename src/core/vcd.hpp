// Value-change-dump writer: records selected wires of a Network per cycle so
// WP runs can be inspected in any waveform viewer (GTKWave etc.). Each wire
// contributes a 64-bit value vector plus `valid` and `stop` bits. Wires are
// named by id; their default display names come from the network's wire
// name table.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/network.hpp"

namespace wp {

class VcdWriter {
 public:
  /// Samples wires of `network`, which must outlive the writer; `module`
  /// names the scope.
  VcdWriter(std::ostream& os, const Network& network,
            std::string module = "wirepipe");

  /// Registers a wire before finalize_header().
  void add_wire(WireId wire, std::string display_name = {});

  /// Emits the header. Must be called once, after all add_wire() calls and
  /// before the first sample().
  void finalize_header();

  /// Samples all registered wires at time `cycle` (call once per cycle,
  /// after Network::step()).
  void sample(Cycle cycle);

 private:
  struct Entry {
    WireId wire;
    std::string id_value, id_valid, id_stop;
    std::string name;
    Word last_value = ~Word{0};
    int last_valid = -1;
    int last_stop = -1;
  };

  static std::string make_id(std::size_t index);

  std::ostream& os_;
  const Network& network_;
  std::string module_;
  std::vector<Entry> entries_;
  bool header_done_ = false;
  std::size_t next_id_ = 0;
};

}  // namespace wp
