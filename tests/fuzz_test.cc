// Deterministic mutational fuzzing of the input parsers: SM1F frames
// (service/framing.h), JSON (service/json.h), BLIF (network/blif.h) and the
// cell-library text format (liblib/library.h).
//
// No libFuzzer: a seeded corpus of valid inputs is expanded into thousands
// of mutants — truncations, bit flips, byte insertions/deletions, and
// splices of two corpus entries — by Rng::ForStream(seed, mutant_index), so
// every run (and every CI machine) fuzzes the identical inputs. The
// contract under test is the taxonomy's crash-freedom clause: malformed
// input must yield the parser's typed error (FrameError / JsonError /
// ParseError, or std::invalid_argument from an SM_REQUIRE precondition),
// never an InternalError, a crash, or a hang. The suite runs under the
// ASan+UBSan CI job, where "never a crash" includes "never UB".
#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <vector>

#include "liblib/library.h"
#include "network/blif.h"
#include "service/framing.h"
#include "service/json.h"
#include "service/protocol.h"
#include "util/check.h"
#include "util/rng.h"

namespace sm {
namespace {

// One seeded mutant of `corpus[pick]`: a chain of 1–4 mutations so both
// near-valid and badly mangled inputs are covered.
std::string Mutate(const std::vector<std::string>& corpus, std::uint64_t seed,
                   std::uint64_t index) {
  Rng rng = Rng::ForStream(seed, index);
  std::string s = corpus[rng.Below(corpus.size())];
  const int mutations = 1 + static_cast<int>(rng.Below(4));
  for (int m = 0; m < mutations; ++m) {
    switch (rng.Below(5)) {
      case 0:  // truncate
        if (!s.empty()) s.resize(rng.Below(s.size() + 1));
        break;
      case 1:  // flip one bit
        if (!s.empty()) {
          s[rng.Below(s.size())] ^= static_cast<char>(1u << rng.Below(8));
        }
        break;
      case 2:  // overwrite one byte with anything
        if (!s.empty()) {
          s[rng.Below(s.size())] = static_cast<char>(rng.Below(256));
        }
        break;
      case 3:  // insert a random byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.Below(s.size() + 1)),
                 static_cast<char>(rng.Below(256)));
        break;
      case 4: {  // splice: prefix of this + suffix of another corpus entry
        const std::string& other = corpus[rng.Below(corpus.size())];
        const std::size_t cut_a = rng.Below(s.size() + 1);
        const std::size_t cut_b = rng.Below(other.size() + 1);
        s = s.substr(0, cut_a) + other.substr(cut_b);
        break;
      }
    }
  }
  return s;
}

// Runs `target` over `rounds` mutants. The target returns normally or throws
// one of the accepted typed errors (enforced by each caller's catch list);
// anything else propagates out of the EXPECT_NO_THROW-style wrapper and
// fails the test with the mutant index in the message.
template <typename Fn>
void FuzzRounds(const std::vector<std::string>& corpus, std::uint64_t seed,
                int rounds, Fn&& target) {
  for (int i = 0; i < rounds; ++i) {
    const std::string mutant =
        Mutate(corpus, seed, static_cast<std::uint64_t>(i));
    try {
      target(mutant);
    } catch (const InternalError& e) {
      FAIL() << "mutant " << i << " violated an internal invariant: "
             << e.what();
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " raised an untyped "
             << typeid(e).name() << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// SM1F frame parser
// ---------------------------------------------------------------------------

TEST(FuzzFraming, MutatedFramesNeverCrash) {
  std::vector<std::string> corpus;
  corpus.push_back(EncodeFrame(""));
  corpus.push_back(EncodeFrame("{\"id\":1,\"method\":\"stats\"}"));
  corpus.push_back(EncodeFrame(std::string(300, 'x')));
  ServiceRequest r;
  r.id = 9;
  r.method = ServiceMethod::kAnalyzeSpcf;
  r.circuit_name = "i1";
  corpus.push_back(EncodeFrame(SerializeRequest(r)));
  corpus.push_back(EncodeFrame(EncodeFrame("nested")));  // frame-in-frame

  FuzzRounds(corpus, /*seed=*/101, /*rounds=*/4000, [](const std::string& m) {
    std::string payload;
    try {
      // Either consumes a prefix, reports "incomplete" (0), or throws
      // FrameError; consuming more bytes than exist is an invariant breach.
      const std::size_t consumed = DecodeFrame(m, 1u << 20, &payload);
      ASSERT_LE(consumed, m.size());
      if (consumed > 0) {
        ASSERT_EQ(payload.size(), consumed - kFrameHeaderBytes);
      }
    } catch (const FrameError&) {
    }
  });
}

// ---------------------------------------------------------------------------
// JSON parser (the protocol's request/response/result documents)
// ---------------------------------------------------------------------------

TEST(FuzzJson, MutatedDocumentsNeverCrash) {
  std::vector<std::string> corpus;
  corpus.push_back("{}");
  corpus.push_back("[]");
  corpus.push_back("{\"a\":[1,2.5,-3e7,true,false,null],\"b\":{\"c\":\"d\"}}");
  corpus.push_back("\"\\u00e9scaped \\\"quotes\\\" and \\\\ slashes\\n\"");
  ServiceRequest r;
  r.id = 1;
  r.method = ServiceMethod::kEstimateYield;
  r.circuit_name = "cu";
  r.trials = 1000;
  r.deadline_ms = 50;
  r.work_budget = 99;
  corpus.push_back(SerializeRequest(r));
  corpus.push_back(SerializeResponse(
      ServiceResponse{2, "error", "", "boom", "deadline_exceeded"}));

  FuzzRounds(corpus, /*seed=*/202, /*rounds=*/4000, [](const std::string& m) {
    try {
      (void)Json::Parse(m);
    } catch (const JsonError&) {
    }
  });
}

TEST(FuzzJson, MutatedRequestsNeverCrashTheProtocolParser) {
  // One level up: ParseRequest layers typed validation (unknown methods,
  // missing circuit, bad field kinds) on top of Json::Parse.
  std::vector<std::string> corpus;
  for (const ServiceMethod method :
       {ServiceMethod::kAnalyzeSpcf, ServiceMethod::kSynthesizeMasking,
        ServiceMethod::kStats, ServiceMethod::kShutdown}) {
    ServiceRequest r;
    r.id = 3;
    r.method = method;
    r.circuit_name = "x2";
    corpus.push_back(SerializeRequest(r));
  }
  FuzzRounds(corpus, /*seed=*/303, /*rounds=*/3000, [](const std::string& m) {
    try {
      (void)ParseRequest(m);
    } catch (const ParseError&) {  // "malformed request json: ..."
    } catch (const JsonError&) {
    } catch (const std::invalid_argument&) {  // typed protocol validation
    }
  });
}

// ---------------------------------------------------------------------------
// BLIF parser (inline circuit_blif payloads reach it from the network)
// ---------------------------------------------------------------------------

TEST(FuzzBlif, MutatedNetlistsNeverCrash) {
  std::vector<std::string> corpus;
  corpus.push_back(
      ".model tiny\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  corpus.push_back(
      ".model two\n.inputs a b c\n.outputs y z\n"
      ".names a b t\n1- 1\n-1 1\n.names t c y\n11 1\n"
      ".names c z\n0 1\n.end\n");
  corpus.push_back(
      ".model const\n.inputs a\n.outputs y\n.names y\n1\n.end\n");
  corpus.push_back("# comment only\n");

  FuzzRounds(corpus, /*seed=*/404, /*rounds=*/3000, [](const std::string& m) {
    try {
      (void)ReadBlifString(m);
    } catch (const ParseError&) {
    } catch (const std::invalid_argument&) {  // SM_REQUIRE preconditions
    }
  });
}

// ---------------------------------------------------------------------------
// Cell-library parser (custom libraries are user input)
// ---------------------------------------------------------------------------

TEST(FuzzLibrary, MutatedLibrariesNeverCrash) {
  std::vector<std::string> corpus;
  corpus.push_back(
      "# tiny library\n"
      "cell INV  area=1 energy=0.7 delays=1 func=10\n"
      "cell ND2  area=2 energy=1.4 delays=1.4,1.4 func=1110\n"
      "cell TIE1 area=1 energy=0 delays=none func=1\n");
  corpus.push_back(
      "cell AOI21 area=3 energy=2.1 delays=2,2,1.5 func=11100000\n"
      "cell MUX2 area=5 energy=3.5 delays=2.4,2.4,2.4 func=00100111\n");
  corpus.push_back(
      "cell W7 area=6 energy=4 delays=1,1,1,1,1,1,1 func=" +
      std::string(64, '0') + std::string(63, '1') + "0\n");
  corpus.push_back("cell TIE0 area=1 energy=0 delays=none func=0\n");

  FuzzRounds(corpus, /*seed=*/505, /*rounds=*/3000, [](const std::string& m) {
    try {
      (void)ParseLibrary("fuzz", m);
    } catch (const ParseError&) {
    } catch (const std::invalid_argument&) {  // Cell / Library preconditions
    }
  });
}

// Determinism of the harness itself: the mutant stream is a pure function
// of (seed, index), so a failure report's index always reproduces.
TEST(FuzzHarness, MutantsAreDeterministic) {
  const std::vector<std::string> corpus = {"alpha", "bravo", "charlie"};
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(Mutate(corpus, 7, i), Mutate(corpus, 7, i));
  }
}

}  // namespace
}  // namespace sm
