#include "common/serde.h"

namespace bytecard {

namespace {
// Refuse absurd element counts up front: a truncated or corrupt artifact must
// not trigger a multi-gigabyte allocation inside the Model Loader.
constexpr uint64_t kMaxElements = 1ULL << 32;
}  // namespace

Status BufferReader::ReadString(std::string* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadU64(&n));
  if (n > remaining()) return Status::OutOfRange("string truncated");
  out->assign(data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status BufferReader::ReadDoubleVec(std::vector<double>* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxElements || n * sizeof(double) > remaining()) {
    return Status::OutOfRange("double vector truncated");
  }
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(double));
}

Status BufferReader::ReadI64Vec(std::vector<int64_t>* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxElements || n * sizeof(int64_t) > remaining()) {
    return Status::OutOfRange("i64 vector truncated");
  }
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(int64_t));
}

}  // namespace bytecard
