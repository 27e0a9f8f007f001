#include "checks.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

void Ledger::Attempt(const std::string& kind, std::uint64_t n) {
  kinds_[kind].attempted += n;
}

void Ledger::Fail(const std::string& kind, const std::string& why) {
  ++kinds_[kind].failed;
  failures_.push_back(kind + ": " + why);
}

void Ledger::FailAll(const std::string& kind, const std::string& why) {
  kinds_[kind].all_failed = true;
  failures_.push_back(kind + " (every operation): " + why);
}

bool Ledger::Check(bool ok, const std::string& kind, const std::string& why) {
  if (!ok) Fail(kind, why);
  return ok;
}

std::uint64_t Ledger::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : kinds_) n += c.attempted;
  return n;
}

std::uint64_t Ledger::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : kinds_) {
    n += c.all_failed ? c.attempted : std::min(c.failed, c.attempted);
  }
  return n;
}

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Digest(const std::string& bytes) {
  const std::uint64_t h = Fnv1a64(bytes);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool DigestBook::Check(Ledger& ledger, const std::string& key,
                       const std::string& kind, const std::string& bytes) {
  const std::string got = Digest(bytes);
  computed_[key] = got;
  const auto it = recorded_.find(key);
  if (it == recorded_.end()) {
    ledger.FailAll(kind, "no recorded digest for " + key);
    return false;
  }
  if (it->second != got) {
    ledger.FailAll(kind, "digest of " + key + " is " + got + ", recorded " +
                             it->second);
    return false;
  }
  return true;
}

}  // namespace perfbench
