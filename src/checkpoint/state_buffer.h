// Rank-state serialization for checkpoints: a flat, versionless binary
// format (POD fields and POD vectors written in a fixed order and read back
// in the same order).
#pragma once

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace sompi {

class StateWriter {
 public:
  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof(T));
  }

  template <typename T>
  void write_vec(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(values.size());
    if (values.empty()) return;  // .data() may be null for an empty vector
    append(values.data(), values.size() * sizeof(T));
  }

  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* bytes, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, bytes, n);
  }

  std::vector<std::byte> buf_;
};

class StateReader {
 public:
  explicit StateReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    SOMPI_REQUIRE_MSG(pos_ + sizeof(T) <= data_.size(), "state buffer underrun");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    SOMPI_REQUIRE_MSG(pos_ + n * sizeof(T) <= data_.size(), "state buffer underrun");
    std::vector<T> values(n);
    if (n != 0) std::memcpy(values.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return values;
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace sompi
