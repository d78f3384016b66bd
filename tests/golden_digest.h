// FNV-1a digest shared by the golden tests. Each golden test folds the
// bit patterns of what it pins into one Digest and compares the value
// with a constant recorded from a known-good commit.

#ifndef DIMSUM_TESTS_GOLDEN_DIGEST_H_
#define DIMSUM_TESTS_GOLDEN_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dimsum {

/// FNV-1a 64 over the bytes folded in.
class Digest {
 public:
  void AddBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void AddInt(int64_t value) { AddBytes(&value, sizeof(value)); }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    AddBytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace dimsum

#endif  // DIMSUM_TESTS_GOLDEN_DIGEST_H_
