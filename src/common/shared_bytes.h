// Ref-counted immutable byte buffer with cheap offset/length views.
//
// The data plane materialises a payload once and shares it: the netsim
// link holds a reference while the bytes are "in flight", and the N-way
// proxy fan-out sends the same buffer to every instance unless the
// protocol plugin rewrites a unit for one of them.
// Copying a SharedBytes bumps a refcount; slicing adjusts offset/length
// without touching the payload. The underlying Bytes is immutable once
// wrapped — never mutate through a stashed reference.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>

#include "common/bytes.h"

namespace rddr {

class SharedBytes {
 public:
  SharedBytes() = default;

  /// Takes ownership of `owned` (no payload copy; the string's heap
  /// storage moves into the shared cell).
  explicit SharedBytes(Bytes&& owned) : len_(owned.size()) {
    auto cell = std::make_shared<const Bytes>(std::move(owned));
    buf_ = std::shared_ptr<const char>(cell, cell->data());
  }

  /// Materialises a copy of `copied` — the one copy a payload pays when it
  /// enters the shared data plane from a non-owning view. The bytes and
  /// their refcount share one allocation.
  explicit SharedBytes(ByteView copied) : len_(copied.size()) {
    auto cell = std::make_shared_for_overwrite<char[]>(copied.size());
    char* first = cell.get();
    if (!copied.empty()) std::memcpy(first, copied.data(), copied.size());
    buf_ = std::shared_ptr<const char>(std::move(cell), first);
  }

  /// View of the addressed range. Valid while any SharedBytes aliasing the
  /// buffer is alive.
  ByteView view() const { return ByteView(data(), len_); }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const char* data() const { return buf_ ? buf_.get() + off_ : nullptr; }

  /// Sub-view sharing the same buffer: [offset, offset+len) of this view,
  /// clamped to the view's bounds. No bytes move.
  SharedBytes slice(size_t offset, size_t len = static_cast<size_t>(-1)) const {
    SharedBytes out;
    if (!buf_ || offset >= len_) return out;
    out.buf_ = buf_;
    out.off_ = off_ + offset;
    out.len_ = len < len_ - offset ? len : len_ - offset;
    return out;
  }

  /// Number of SharedBytes aliasing the buffer (diagnostics / tests).
  long use_count() const { return buf_.use_count(); }

 private:
  std::shared_ptr<const char> buf_;  // the buffer's first byte
  size_t off_ = 0;
  size_t len_ = 0;
};

}  // namespace rddr
