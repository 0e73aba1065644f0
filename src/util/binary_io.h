#pragma once

#include <cstdint>
#include <cstring>
#include <string>

// Little-endian binary (de)serialization primitives shared by every on-disk
// format in the tree (runner::PartitionCache, store::ExtentWriter/Reader):
// appenders onto a std::string, a bounds-checked Cursor that degrades to
// "not ok" instead of reading past the end, and the FNV-1a fingerprint used
// both for structural cache keys and file checksums. Keeping one copy means
// a hardening fix (e.g. a new overflow check in the cursor) reaches every
// format at once.
namespace hetpipe::util {

// FNV-1a, the usual choice for cheap structural fingerprints and
// corruption-detection checksums (not cryptographic).
class Fnv1a {
 public:
  Fnv1a() = default;
  // Resumes from a value() an earlier instance reached. The 64-bit value is
  // FNV-1a's whole state, so mixing on from it gives exactly the hash of
  // mixing everything through one instance.
  explicit Fnv1a(uint64_t state) : hash_(state) {}

  void MixByte(unsigned char b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }
  }
  void Mix(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  void Mix(const std::string& s) {
    for (char c : s) {
      MixByte(static_cast<unsigned char>(c));
    }
    Mix(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline uint64_t Fnv1aBytes(const char* data, size_t size) {
  Fnv1a fp;
  for (size_t i = 0; i < size; ++i) {
    fp.MixByte(static_cast<unsigned char>(data[i]));
  }
  return fp.value();
}

// ---- Appenders. Scalars are written in host byte order; every platform this
// ---- repo targets is little-endian, and the file headers' magic values
// ---- would catch a byte-order mismatch at load time.

inline void PutU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }
inline void PutU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutF64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutStr(std::string& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

// Unsigned LEB128; at most 10 bytes for a uint64_t.
inline void PutVarU64(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// ZigZag so small negative deltas stay short varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Bounds-checked reader; every getter degrades to "not ok" (and a
// zero-initialized value) on underflow instead of reading past the end, so
// callers can decode a whole record and check ok() once.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : p_(data), left_(size) {}

  bool ok() const { return ok_; }
  size_t left() const { return left_; }

  template <typename T>
  T Get() {
    T v{};
    if (!Take(sizeof(T))) {
      return v;
    }
    std::memcpy(&v, p_ - sizeof(T), sizeof(T));
    return v;
  }

  std::string GetStr() {
    const uint32_t n = Get<uint32_t>();
    if (!Take(n)) {
      return std::string();
    }
    return std::string(p_ - n, n);
  }

  uint64_t GetVarU64() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Take(1)) {
        return 0;
      }
      const unsigned char b = static_cast<unsigned char>(*(p_ - 1));
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        return v;
      }
    }
    ok_ = false;  // 10th continuation byte: not a valid uint64_t varint
    return 0;
  }

  // Raw view of the next n bytes (nullptr + !ok() on underflow).
  const char* GetBytes(size_t n) {
    if (!Take(n)) {
      return nullptr;
    }
    return p_ - n;
  }

 private:
  bool Take(size_t n) {
    if (!ok_ || n > left_) {
      ok_ = false;
      return false;
    }
    p_ += n;
    left_ -= n;
    return true;
  }

  const char* p_;
  size_t left_;
  bool ok_ = true;
};

}  // namespace hetpipe::util
