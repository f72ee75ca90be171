#include "common/serde.h"

namespace bytecard {

Status BufferReader::ReadCount(uint64_t* out, size_t min_element_bytes) {
  BC_RETURN_IF_ERROR(ReadU64(out));
  if (*out > remaining() / min_element_bytes) {
    return Status::OutOfRange("element count exceeds the remaining bytes");
  }
  return Status::Ok();
}

Status BufferReader::ReadString(std::string* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadCount(&n, 1));
  out->assign(data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status BufferReader::ReadDoubleVec(std::vector<double>* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadCount(&n, sizeof(double)));
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(double));
}

Status BufferReader::ReadI64Vec(std::vector<int64_t>* out) {
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(ReadCount(&n, sizeof(int64_t)));
  out->resize(n);
  return ReadRaw(out->data(), n * sizeof(int64_t));
}

}  // namespace bytecard
