// Sparse backing store: byte addressing, little-endian packing, page
// materialization.

#include <gtest/gtest.h>

#include "ddr/storage.hpp"

namespace {

using namespace ahbp::ddr;

TEST(Storage, UntouchedReadsZero) {
  SparseMemory m;
  EXPECT_EQ(m.read(0x1234, 4), 0u);
  EXPECT_EQ(m.pages(), 0u);  // reads do not materialize pages
}

TEST(Storage, WriteReadRoundtrip) {
  SparseMemory m;
  m.write(0x100, 0x11223344, 4);
  EXPECT_EQ(m.read(0x100, 4), 0x11223344u);
}

TEST(Storage, LittleEndianByteOrder) {
  SparseMemory m;
  m.write(0x0, 0xAABBCCDD, 4);
  EXPECT_EQ(m.read(0x0, 1), 0xDDu);
  EXPECT_EQ(m.read(0x1, 1), 0xCCu);
  EXPECT_EQ(m.read(0x2, 1), 0xBBu);
  EXPECT_EQ(m.read(0x3, 1), 0xAAu);
}

TEST(Storage, PartialWidthWritePreservesNeighbours) {
  SparseMemory m;
  m.write(0x10, 0xFFFFFFFFFFFFFFFFull, 8);
  m.write(0x12, 0x00, 1);
  EXPECT_EQ(m.read(0x10, 8), 0xFFFFFFFFFF00FFFFull);
}

TEST(Storage, CrossPageAccess) {
  SparseMemory m;
  const ahbp::ahb::Addr a = SparseMemory::kPageBytes - 2;
  m.write(a, 0xCAFEBABE, 4);
  EXPECT_EQ(m.read(a, 4), 0xCAFEBABEu);
  EXPECT_EQ(m.pages(), 2u);
}

TEST(Storage, StraddlingReadWithOneMaterializedPageReadsZeroHalf) {
  const ahbp::ahb::Addr a = SparseMemory::kPageBytes * 3 - 4;
  // Only the low page exists: the high half of the read is zero.
  SparseMemory lo;
  lo.write(a, 0xDDCCBBAA, 4);
  EXPECT_EQ(lo.read(a, 8), 0xDDCCBBAAull);
  EXPECT_EQ(lo.pages(), 1u);
  // Only the high page exists: the low half of the read is zero.
  SparseMemory hi;
  hi.write(a + 4, 0x44332211, 4);
  EXPECT_EQ(hi.read(a, 8), 0x4433221100000000ull);
  EXPECT_EQ(hi.read(a + 2, 4), 0x22110000u);
  EXPECT_EQ(hi.pages(), 1u);
}

TEST(Storage, EightByteAccess) {
  SparseMemory m;
  m.write(0x40, 0x0123456789ABCDEFull, 8);
  EXPECT_EQ(m.read(0x40, 8), 0x0123456789ABCDEFull);
  EXPECT_EQ(m.read(0x44, 4), 0x01234567u);
}

TEST(Storage, InvalidWidthThrows) {
  SparseMemory m;
  EXPECT_THROW(m.read(0, 0), std::invalid_argument);
  EXPECT_THROW(m.read(0, 9), std::invalid_argument);
  EXPECT_THROW(m.write(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(m.write(0, 0, 16), std::invalid_argument);
}

TEST(Storage, DistinctPagesIndependent) {
  SparseMemory m;
  m.write(0x0, 1, 4);
  m.write(SparseMemory::kPageBytes * 5, 2, 4);
  EXPECT_EQ(m.read(0x0, 4), 1u);
  EXPECT_EQ(m.read(SparseMemory::kPageBytes * 5, 4), 2u);
  EXPECT_EQ(m.pages(), 2u);
}

}  // namespace
