// Output checks and the operation ledger behind `attempted`, `failed` and
// failed_frac.
//
// An operation is one unit of user-visible work: a flow on one circuit, one
// yield estimate or injection campaign, one daemon request. Operations are
// counted per kind (for example "flow:C432"). A check that fails for one
// operation fails that operation; a wrong reference result (a digest that
// differs from the recorded one) fails every operation of its kind, since
// every run of that kind returned those bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  void Attempt(const std::string& kind, std::uint64_t n = 1);
  // One operation of `kind` failed.
  void Fail(const std::string& kind, const std::string& why);
  // Every operation of `kind`, attempted before or after this call, failed.
  void FailAll(const std::string& kind, const std::string& why);
  // Records a failure when `ok` is false; returns `ok`.
  bool Check(bool ok, const std::string& kind, const std::string& why);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  struct Counts {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool all_failed = false;
  };
  std::map<std::string, Counts> kinds_;
  std::vector<std::string> failures_;
};

// 64-bit FNV-1a of `bytes`, and the same as 16 lowercase hex digits.
std::uint64_t Fnv1a64(const std::string& bytes);
std::string Digest(const std::string& bytes);

// Digests recorded for the default seed, keyed "<workload>/<kind>".
class DigestBook {
 public:
  explicit DigestBook(std::map<std::string, std::string> recorded)
      : recorded_(std::move(recorded)) {}

  // Compares Digest(bytes) with the recorded value for `key`; a missing or
  // different value fails every operation of `kind`. Every computed digest
  // is kept for printing (the way new values are recorded).
  bool Check(Ledger& ledger, const std::string& key, const std::string& kind,
             const std::string& bytes);

  const std::map<std::string, std::string>& computed() const {
    return computed_;
  }

 private:
  std::map<std::string, std::string> recorded_;
  std::map<std::string, std::string> computed_;
};

// The digests recorded for the default seed of every workload.
std::map<std::string, std::string> RecordedDigests();

}  // namespace perfbench
