#ifndef BYTECARD_COMMON_SERDE_H_
#define BYTECARD_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace bytecard {

// Binary serialization used for model artifacts. Every learned model
// serializes to a byte buffer via BufferWriter and is reconstructed via
// BufferReader; the ModelForge service writes these buffers to the artifact
// store and the Model Loader reads them back. Little-endian, fixed-width.
class BufferWriter {
 public:
  BufferWriter() = default;

  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    AppendRaw(s.data(), s.size());
  }

  void WriteDoubleVec(const std::vector<double>& v) {
    WriteU64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(double));
  }

  void WriteI64Vec(const std::vector<int64_t>& v) {
    WriteU64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(int64_t));
  }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void AppendRaw(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  std::string buffer_;
};

// Reader side; all Read* methods fail cleanly (Status) on truncated input so
// that the Model Validator can reject corrupt artifacts without crashing.
class BufferReader {
 public:
  explicit BufferReader(const std::string& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BufferReader(const char* data, size_t size) : data_(data), size_(size) {}

  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }

  // Reads an element count and fails unless that many elements of at least
  // `min_element_bytes` each fit in the bytes that remain, so a corrupt
  // count can never size a container past the buffer.
  Status ReadCount(uint64_t* out, size_t min_element_bytes);

  Status ReadString(std::string* out);
  Status ReadDoubleVec(std::vector<double>* out);
  Status ReadI64Vec(std::vector<int64_t>* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (pos_ + n > size_) {
      return Status::OutOfRange("buffer truncated");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Parses `bytes` as exactly one T through T::Deserialize: an artifact with
// bytes left after its model is invalid, like a truncated one.
template <typename T>
Result<T> DeserializeArtifact(const std::string& bytes) {
  BufferReader reader(bytes);
  BC_ASSIGN_OR_RETURN(T value, T::Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidModel("trailing bytes after the model");
  }
  return value;
}

}  // namespace bytecard

#endif  // BYTECARD_COMMON_SERDE_H_
