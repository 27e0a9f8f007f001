#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "liblib/library.h"
#include "liblib/lsi10k.h"
#include "util/check.h"

namespace sm {
namespace {

TEST(Cell, ValidatesConstruction) {
  EXPECT_THROW(Cell("", TruthTable::Var(0, 1), 1, {1}, 1),
               std::invalid_argument);  // unnamed
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), 1, {}, 1),
               std::invalid_argument);  // delay count mismatch
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), 1, {0.0}, 1),
               std::invalid_argument);  // non-positive delay
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), 1, {inf}, 1),
               std::invalid_argument);  // infinite delay
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), inf, {1}, 1),
               std::invalid_argument);  // infinite area
  EXPECT_THROW(Cell("X", TruthTable::Const1(2), 1, {1, 1}, 1),
               std::invalid_argument);  // constant with pins
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 2), 1, {1, 1}, 1),
               std::invalid_argument);  // vacuous pin 1
}

TEST(Cell, RejectsMoreThanMaxPins) {
  const int pins = kMaxCellPins + 1;
  TruthTable parity(pins);
  for (std::uint64_t m = 0; m < parity.num_minterms_space(); ++m) {
    parity.Set(m, std::popcount(m) % 2 == 1);
  }
  try {
    Cell("WIDE", parity, 1, std::vector<double>(pins, 1.0), 1);
    FAIL() << "an " << pins << "-pin cell was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("WIDE"), std::string::npos)
        << e.what();
  }
}

TEST(Cell, Classification) {
  const Cell inv("INV", ~TruthTable::Var(0, 1), 1, {1}, 1);
  const Cell buf("BUF", TruthTable::Var(0, 1), 1, {1}, 1);
  const Cell tie("TIE1", TruthTable::Const1(0), 1, {}, 0);
  EXPECT_TRUE(inv.IsInverter());
  EXPECT_FALSE(inv.IsBuffer());
  EXPECT_TRUE(buf.IsBuffer());
  EXPECT_TRUE(tie.IsConstant());
  EXPECT_EQ(tie.num_pins(), 0);
}

TEST(Cell, PrimeCovers) {
  // AOI21 = ~((a & b) | c): off-set primes {ab, c}, on-set primes {a'c', b'c'}.
  const Library lib = Lsi10kLike();
  const Cell* aoi = lib.ByNameOrThrow("AOI21");
  EXPECT_EQ(aoi->OffSetPrimes().NumCubes(), 2u);
  EXPECT_EQ(aoi->OnSetPrimes().NumCubes(), 2u);
  EXPECT_EQ(aoi->OnSetPrimes().ToTruthTable(), aoi->function());
  EXPECT_EQ(aoi->OffSetPrimes().ToTruthTable(), ~aoi->function());
}

// Every worker of a parallel flow (the table benches, the daemon) reads the
// same library's prime covers. Reading them must not write to the cell:
// ThreadSanitizer (CI) reports a race on the first concurrent read of a
// lazily filled cover, and every thread must see complete covers.
TEST(Cell, PrimeCoversAreSafeToReadConcurrently) {
  const Library lib = Lsi10kLike();
  const std::vector<const Cell*> cells = lib.AllCells();
  std::vector<int> complete(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < complete.size(); ++t) {
    readers.emplace_back([&cells, &complete, t] {
      bool ok = true;
      for (const Cell* cell : cells) {
        ok = ok && cell->OnSetPrimes().ToTruthTable() == cell->function() &&
             cell->OffSetPrimes().ToTruthTable() == ~cell->function();
      }
      complete[t] = ok ? 1 : 0;
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(complete, std::vector<int>(complete.size(), 1));
}

TEST(Library, Lsi10kLikeSanity) {
  const Library lib = Lsi10kLike();
  EXPECT_GE(lib.NumCells(), 20u);
  EXPECT_NE(lib.ByName("NAND2"), nullptr);
  EXPECT_EQ(lib.ByName("NOPE"), nullptr);
  EXPECT_THROW(lib.ByNameOrThrow("NOPE"), std::invalid_argument);
  EXPECT_TRUE(lib.SmallestInverter()->IsInverter());
  EXPECT_TRUE(lib.SmallestConstant(true)->function().Get(0));
  EXPECT_FALSE(lib.SmallestConstant(false)->function().Get(0));
  EXPECT_EQ(lib.MaxPins(), 4);
  // Spot-check functions.
  const Cell* mux = lib.ByNameOrThrow("MUX2");
  // MUX2: p0 ? p2 : p1 — minterm (s=1, d0=0, d1=1) = 0b101 -> 1.
  EXPECT_TRUE(mux->function().Get(0b101));
  EXPECT_FALSE(mux->function().Get(0b001));
  EXPECT_TRUE(mux->function().Get(0b010));
  const Cell* aoi22 = lib.ByNameOrThrow("AOI22");
  for (std::uint64_t m = 0; m < 16; ++m) {
    const bool ab = (m & 3) == 3;
    const bool cd = (m & 12) == 12;
    EXPECT_EQ(aoi22->function().Get(m), !(ab || cd)) << m;
  }
}

TEST(Library, UnitLibraryDelaysMatchPaperModel) {
  const Library lib = UnitLibrary();
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("INV")->pin_delay(0), 1.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("AND2")->pin_delay(0), 2.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("OR2")->pin_delay(1), 2.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("NAND2")->pin_delay(0), 2.0);
}

TEST(Library, CellsWithPins) {
  const Library lib = Lsi10kLike();
  for (const Cell* c : lib.CellsWithPins(2)) EXPECT_EQ(c->num_pins(), 2);
  EXPECT_FALSE(lib.CellsWithPins(2).empty());
  EXPECT_FALSE(lib.CellsWithPins(4).empty());
}

TEST(Library, RejectsDuplicates) {
  Library lib("dup");
  lib.Add(Cell("A", TruthTable::Var(0, 1), 1, {1}, 1));
  EXPECT_THROW(lib.Add(Cell("A", TruthTable::Var(0, 1), 1, {1}, 1)),
               std::invalid_argument);
}

TEST(ParseLibrary, RoundTripSmallLibrary) {
  const Library lib = ParseLibrary("custom", R"(
# tiny test library
cell INV  area=1 energy=0.7 delays=1 func=10
cell ND2  area=2 energy=1.4 delays=1.4,1.4 func=1110
cell TIE1 area=1 energy=0 delays=none func=1
)");
  EXPECT_EQ(lib.NumCells(), 3u);
  EXPECT_TRUE(lib.ByNameOrThrow("INV")->IsInverter());
  EXPECT_EQ(lib.ByNameOrThrow("ND2")->function().ToBits(), "1110");
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("ND2")->pin_delay(1), 1.4);
  EXPECT_TRUE(lib.ByNameOrThrow("TIE1")->IsConstant());
}

TEST(ParseLibrary, Errors) {
  EXPECT_THROW(ParseLibrary("b", "gate X area=1"), ParseError);
  EXPECT_THROW(ParseLibrary("b", "cell X area=1 energy=1 delays=1 func=101"),
               ParseError);  // func width
  EXPECT_THROW(ParseLibrary("b", "cell X area=z energy=1 delays=1 func=10"),
               ParseError);  // bad number
  EXPECT_THROW(ParseLibrary("b", "cell X energy=1 delays=1 func=10"),
               ParseError);  // missing area
  EXPECT_THROW(
      ParseLibrary("b", "cell X area=1e999 energy=1 delays=1 func=10"),
      ParseError);  // number out of range
}

// A delay list longer than kMaxCellPins is a parse error, raised before the
// 2^pins width check (at 64 pins and above that shift is undefined). The
// 11-pin line carries a full-width parity table, so only the pin count is
// wrong with it.
TEST(ParseLibrary, RejectsMoreThanMaxPins) {
  std::string parity11;
  for (std::uint64_t m = 0; m < (1u << (kMaxCellPins + 1)); ++m) {
    parity11 += std::popcount(m) % 2 == 1 ? '1' : '0';
  }
  for (const int pins : {kMaxCellPins + 1, 64, 65}) {
    std::string delays = "1";
    for (int p = 1; p < pins; ++p) delays += ",1";
    const std::string func = pins == kMaxCellPins + 1 ? parity11 : "01";
    EXPECT_THROW(ParseLibrary("b", "cell X area=1 energy=1 delays=" + delays +
                                       " func=" + func),
                 ParseError)
        << pins << " pins";
  }
}

}  // namespace
}  // namespace sm
