// T2 (§4 "Overhead") — RoCE header overhead, measured on real frames.
//
// The paper: "RoCEv2 protocol adds 40 bytes (52 bytes in the case of
// RoCEv1) of headers containing routing and transport information in
// addition to an RDMA operation-specific header of 16 (WRITE/READ) or 28
// bytes (Fetch-and-Add)." Every number below is measured by serializing
// actual frames and counting bytes, not assumed.
#include <cstdio>

#include "bench_util.hpp"
#include "roce/packet.hpp"
#include "stats/table_printer.hpp"

using namespace xmem;

namespace {

roce::RoceEndpoint ep(int i) {
  return {net::MacAddress::from_index(static_cast<std::uint16_t>(i)),
          net::Ipv4Address::from_index(static_cast<std::uint16_t>(i)),
          static_cast<std::uint16_t>(0xc000 + i)};
}

std::size_t frame_bytes(roce::Opcode op, std::size_t payload,
                        roce::RoceVersion version) {
  roce::RoceMessage msg;
  msg.bth.opcode = op;
  if (roce::has_reth(op)) {
    msg.reth = roce::Reth{0x1000, 0xaa, static_cast<std::uint32_t>(payload)};
  }
  if (roce::has_atomic_eth(op)) {
    msg.atomic_eth = roce::AtomicEth{0x1000, 0xaa, 1, 0};
  }
  if (roce::has_aeth(op)) msg.aeth = roce::Aeth{};
  if (roce::has_atomic_ack_eth(op)) msg.atomic_ack = roce::AtomicAckEth{};
  msg.payload.assign(payload, 0x5a);
  return roce::build_roce_packet(ep(1), ep(2), std::move(msg), version).size();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("T2 (§4)", "RoCE header overhead per operation",
                "40 B (RoCEv2) / 52 B (RoCEv1) of routing+transport headers "
                "plus 16 B (WRITE/READ) or 28 B (Fetch-and-Add)");

  struct OpRow {
    const char* name;
    roce::Opcode op;
    std::size_t payload;
  };
  const OpRow ops[] = {
      {"RDMA WRITE (store 1500B frame)", roce::Opcode::kRdmaWriteOnly, 1500},
      {"RDMA WRITE (store 64B frame)", roce::Opcode::kRdmaWriteOnly, 64},
      {"RDMA READ request", roce::Opcode::kRdmaReadRequest, 0},
      {"READ response (1500B entry)", roce::Opcode::kRdmaReadResponseOnly,
       1500},
      {"Fetch-and-Add request", roce::Opcode::kFetchAdd, 0},
      {"Atomic ACK", roce::Opcode::kAtomicAcknowledge, 0},
      {"ACK", roce::Opcode::kAcknowledge, 0},
  };

  stats::TablePrinter table({"operation", "payload (B)", "v2 frame (B)",
                             "v2 added (B)", "v1 frame (B)", "v1 added (B)"});
  for (const auto& row : ops) {
    const std::size_t v2 = frame_bytes(row.op, row.payload, roce::RoceVersion::kV2);
    const std::size_t v1 = frame_bytes(row.op, row.payload, roce::RoceVersion::kV1);
    // "added" = everything except Ethernet framing and the payload
    // itself (pad bytes count as overhead).
    const std::size_t v2_added = v2 - net::kEthernetHeaderBytes - row.payload;
    const std::size_t v1_added = v1 - net::kEthernetHeaderBytes - row.payload;
    table.add_row({row.name, std::to_string(row.payload), std::to_string(v2),
                   std::to_string(v2_added), std::to_string(v1),
                   std::to_string(v1_added)});
  }
  table.print("T2: measured on-wire bytes per RoCE operation");

  // The paper's specific arithmetic, checked against measured frames.
  const std::size_t v2_write =
      frame_bytes(roce::Opcode::kRdmaWriteOnly, 1000, roce::RoceVersion::kV2) -
      net::kEthernetHeaderBytes - 1000 - roce::kIcrcBytes;
  const std::size_t v1_write =
      frame_bytes(roce::Opcode::kRdmaWriteOnly, 1000, roce::RoceVersion::kV1) -
      net::kEthernetHeaderBytes - 1000 - roce::kIcrcBytes;
  const std::size_t v2_atomic =
      frame_bytes(roce::Opcode::kFetchAdd, 0, roce::RoceVersion::kV2) -
      net::kEthernetHeaderBytes - roce::kIcrcBytes;

  results.verdict(v2_write == 40 + 16,
                  "RoCEv2 WRITE adds 40 B routing/transport + 16 B RETH");
  results.verdict(v1_write == 52 + 16,
                  "RoCEv1 WRITE adds 52 B routing/transport + 16 B RETH");
  results.verdict(v2_atomic == 40 + 28,
                  "RoCEv2 Fetch-and-Add adds 40 B + 28 B AtomicETH");

  // Effective goodput tax when storing packets of various sizes.
  stats::TablePrinter tax({"stored frame (B)", "wire bytes/op (v2)",
                           "bandwidth overhead"});
  for (const std::size_t size : {64, 128, 256, 512, 1024, 1500}) {
    const std::size_t wire =
        frame_bytes(roce::Opcode::kRdmaWriteOnly, size, roce::RoceVersion::kV2);
    const double overhead =
        100.0 * (static_cast<double>(wire) - static_cast<double>(size)) /
        static_cast<double>(size);
    tax.add_row({std::to_string(size), std::to_string(wire),
                 stats::TablePrinter::num(overhead) + "%"});
  }
  tax.print("T2-b: bandwidth tax of storing a packet remotely");
  return results.finish();
}
