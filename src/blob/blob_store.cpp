#include "blob/blob_store.hpp"

#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace wdoc::blob {

namespace {

// Process-wide aggregates across every BlobStore (one per station in the
// simulations): gauges track deltas so they sum correctly over stores.
struct BlobMetrics {
  obs::Counter& puts;
  obs::Counter& dedup_hits;
  obs::Counter& evictions;
  obs::Counter& digest_bytes;
  obs::Gauge& stored_bytes;
  obs::Gauge& logical_bytes;

  static BlobMetrics& get() {
    static BlobMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new BlobMetrics{
          reg.counter("blob.puts"),        reg.counter("blob.dedup_hits"),
          reg.counter("blob.evictions"),   reg.counter("blob.digest_bytes"),
          reg.gauge("blob.stored_bytes"),  reg.gauge("blob.logical_bytes"),
      };
    }();
    return *m;
  }
};

}  // namespace

namespace fs = std::filesystem;

namespace {

Status write_file(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {Errc::io_error, "cannot write blob: " + path};
  bool ok = data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return {Errc::io_error, "blob write failed: " + path};
  return Status::ok();
}

Result<Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error{Errc::io_error, "cannot read blob: " + path};
  Bytes out;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return out;
}

MediaType guess_media_type(std::uint64_t size) {
  // Reopened blob files carry no media tag; classify by size band so disk
  // accounting by type stays plausible. Owners that care re-attach the type.
  if (size >= (4ull << 20)) return MediaType::video;
  if (size >= (1ull << 20)) return MediaType::audio;
  if (size >= (64ull << 10)) return MediaType::image;
  return MediaType::other;
}

}  // namespace

Result<std::unique_ptr<BlobStore>> BlobStore::open(const std::string& dir,
                                                   std::uint64_t capacity_bytes) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Error{Errc::io_error, "cannot create blob dir: " + dir};

  auto store = std::make_unique<BlobStore>(capacity_bytes);
  store->dir_ = dir;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() != 37 || name.substr(32) != ".blob") continue;
    auto digest = Digest128::from_hex(name.substr(0, 32));
    if (!digest) continue;
    Entry e;
    e.info.id = store->ids_.next();
    e.info.digest = *digest;
    e.info.size = entry.file_size();
    e.info.type = guess_media_type(e.info.size);
    e.info.refs = 0;  // owners re-reference during their recovery
    e.info.resident = true;
    e.on_disk = true;
    e.loaded = false;
    store->stored_bytes_ += e.info.size;
    store->by_digest_.emplace(e.info.digest, e.info.id);
    store->blobs_.emplace(e.info.id.value(), std::move(e));
  }
  return store;
}

std::string BlobStore::blob_path(const Digest128& digest) const {
  return dir_ + "/" + digest.to_hex() + ".blob";
}

void BlobStore::remove_entry_files(const Entry& e) {
  if (e.on_disk && !dir_.empty()) {
    std::error_code ec;
    fs::remove(blob_path(e.info.digest), ec);
  }
}

BlobStore::~BlobStore() {
  BlobMetrics::get().stored_bytes.sub(static_cast<std::int64_t>(stored_bytes_));
  BlobMetrics::get().logical_bytes.sub(static_cast<std::int64_t>(logical_bytes_));
}

Digest128 BlobStore::hash(std::span<const std::uint8_t> bytes) {
  digest_bytes_ += bytes.size();
  BlobMetrics::get().digest_bytes.inc(bytes.size());
  return digest128(bytes);
}

Result<BlobId> BlobStore::put(Bytes data, MediaType type) {
  Digest128 digest = hash(data);
  const std::uint64_t size = data.size();
  return put_entry(digest, size, type, std::make_shared<Bytes>(std::move(data)),
                   /*resident=*/true);
}

Result<BlobId> BlobStore::put_synthetic(const Digest128& digest, std::uint64_t size,
                                        MediaType type) {
  return put_entry(digest, size, type, nullptr, /*resident=*/false);
}

Result<BlobId> BlobStore::put_entry(const Digest128& digest, std::uint64_t size,
                                    MediaType type, std::shared_ptr<Bytes> data,
                                    bool resident) {
  if (auto it = by_digest_.find(digest); it != by_digest_.end()) {
    Entry& e = blobs_.at(it->second.value());
    ++e.info.refs;
    logical_bytes_ += e.info.size;
    BlobMetrics::get().dedup_hits.inc();
    BlobMetrics::get().logical_bytes.add(static_cast<std::int64_t>(e.info.size));
    // A synthetic entry upgraded with real bytes becomes resident.
    if (resident && !e.info.resident) {
      e.data = std::move(data);
      e.info.resident = true;
      e.loaded = true;
      if (!dir_.empty()) {
        WDOC_TRY(write_file(blob_path(digest), *e.data));
        e.on_disk = true;
      }
    }
    return e.info.id;
  }
  if (capacity_ != kUnlimited && stored_bytes_ + size > capacity_) {
    return Error{Errc::out_of_space,
                 "blob store full: " + std::to_string(stored_bytes_) + " + " +
                     std::to_string(size) + " > " + std::to_string(capacity_)};
  }
  BlobId id = ids_.next();
  Entry e;
  e.info = BlobInfo{id, digest, type, size, 1, resident};
  if (resident && !dir_.empty()) {
    WDOC_TRY(write_file(blob_path(digest), *data));
    e.on_disk = true;
  }
  e.data = std::move(data);
  e.loaded = resident;
  stored_bytes_ += size;
  logical_bytes_ += size;
  BlobMetrics::get().puts.inc();
  BlobMetrics::get().stored_bytes.add(static_cast<std::int64_t>(size));
  BlobMetrics::get().logical_bytes.add(static_cast<std::int64_t>(size));
  by_digest_.emplace(digest, id);
  blobs_.emplace(id.value(), std::move(e));
  return id;
}

Status BlobStore::add_ref(BlobId id) {
  auto it = blobs_.find(id.value());
  if (it == blobs_.end()) return {Errc::not_found, "no blob " + std::to_string(id.value())};
  ++it->second.info.refs;
  logical_bytes_ += it->second.info.size;
  BlobMetrics::get().logical_bytes.add(static_cast<std::int64_t>(it->second.info.size));
  return Status::ok();
}

Status BlobStore::release(BlobId id, bool evict_now) {
  auto it = blobs_.find(id.value());
  if (it == blobs_.end()) return {Errc::not_found, "no blob " + std::to_string(id.value())};
  BlobInfo& info = it->second.info;
  if (info.refs == 0) return {Errc::conflict, "release of zero-ref blob"};
  --info.refs;
  logical_bytes_ -= info.size;
  BlobMetrics::get().logical_bytes.sub(static_cast<std::int64_t>(info.size));
  if (info.refs == 0 && evict_now) {
    stored_bytes_ -= info.size;
    BlobMetrics::get().evictions.inc();
    BlobMetrics::get().stored_bytes.sub(static_cast<std::int64_t>(info.size));
    remove_entry_files(it->second);
    by_digest_.erase(info.digest);
    blobs_.erase(it);
  }
  return Status::ok();
}

Result<std::span<const std::uint8_t>> BlobStore::get(BlobId id) {
  auto it = blobs_.find(id.value());
  if (it == blobs_.end()) return Error{Errc::not_found, "no blob " + std::to_string(id.value())};
  Entry& e = it->second;
  if (!e.info.resident) {
    return Error{Errc::unavailable, "synthetic blob has no payload"};
  }
  if (!e.loaded) {
    auto data = read_file(blob_path(e.info.digest));
    if (!data) return data.error();
    e.data = std::make_shared<Bytes>(std::move(data).value());
    e.loaded = true;
  }
  return std::span<const std::uint8_t>(*e.data);
}

const BlobInfo* BlobStore::info(BlobId id) const {
  auto it = blobs_.find(id.value());
  return it == blobs_.end() ? nullptr : &it->second.info;
}

std::optional<BlobId> BlobStore::find(const Digest128& digest) const {
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return std::nullopt;
  return it->second;
}

// --- partial assembly --------------------------------------------------------

Result<bool> BlobStore::begin_partial(const Digest128& digest, std::uint64_t size,
                                      MediaType type, std::uint32_t chunk_bytes) {
  if (size == 0) return Error{Errc::invalid_argument, "partial of empty blob"};
  if (chunk_bytes == 0 || chunk_bytes > kMaxChunkBytes) {
    return Error{Errc::invalid_argument,
                 "bad chunk size " + std::to_string(chunk_bytes)};
  }
  if (by_digest_.contains(digest)) return false;  // already complete
  auto it = partials_.find(digest);
  if (it != partials_.end()) {
    const PartialInfo& p = it->second.info;
    if (p.size != size || p.chunk_bytes != chunk_bytes) {
      return Error{Errc::invalid_argument, "partial geometry mismatch for " + digest.to_hex()};
    }
    return true;
  }
  Partial p;
  p.info = PartialInfo{digest, size, type, chunk_bytes, chunk_count(size, chunk_bytes), 0};
  p.have.assign(p.info.chunks_total, false);
  p.real.assign(p.info.chunks_total, false);
  p.chunk_digests.resize(p.info.chunks_total);
  partials_.emplace(digest, std::move(p));
  return true;
}

Result<BlobStore::ChunkAdd> BlobStore::promote_partial(Partial& p) {
  const PartialInfo& info = p.info;
  bool all_real = p.any_real && static_cast<std::uint32_t>(std::count(
                                    p.real.begin(), p.real.end(), true)) == info.chunks_total;
  if (all_real) {
    // Whole-blob integrity gate: per-chunk digests already passed, but the
    // declared blob digest is the contract — reject and restart assembly
    // rather than ever accepting bytes under the wrong content address.
    if (hash(*p.data) != info.digest) {
      p.have.assign(info.chunks_total, false);
      p.real.assign(info.chunks_total, false);
      p.info.chunks_have = 0;
      partial_bytes_ -= info.size;
      p.any_real = false;
      // Drop our reference; the allocation dies when (if) the last served
      // slice does. A fresh buffer is minted on the next real chunk, so
      // outstanding slices of the rejected assembly are never overwritten.
      p.data.reset();
      return Error{Errc::corrupt,
                   "reassembled blob failed whole-content verification: " + info.digest.to_hex()};
    }
  }
  // Promotion hands the partial's shared buffer to the complete entry —
  // the same allocation, so slices served mid-assembly remain valid.
  Result<BlobId> id = all_real ? put_entry(info.digest, info.size, info.type,
                                           std::move(p.data), /*resident=*/true)
                               : put_synthetic(info.digest, info.size, info.type);
  if (!id) return id.error();  // e.g. out of space; partial stays for a retry
  if (all_real) {
    // The chunk digests verified on receipt stay with the stored chunks.
    Entry& e = blobs_.at(id.value().value());
    e.digest_chunk_bytes = info.chunk_bytes;
    e.chunk_digests.assign(p.chunk_digests.begin(), p.chunk_digests.end());
  }
  // The assembled blob is buffer space until a document instance claims it —
  // the same zero-reference contract a completed single-shot fetch leaves.
  WDOC_TRY(release(id.value()));
  if (p.any_real) partial_bytes_ -= info.size;
  partials_.erase(info.digest);
  return ChunkAdd::completed;
}

Result<BlobStore::ChunkAdd> BlobStore::add_chunk(const Digest128& digest, std::uint32_t index,
                                                 const Digest128& chunk_digest,
                                                 std::span<const std::uint8_t> data) {
  if (by_digest_.contains(digest)) return ChunkAdd::duplicate;  // blob complete
  auto it = partials_.find(digest);
  if (it == partials_.end()) {
    return Error{Errc::not_found, "no partial for " + digest.to_hex()};
  }
  Partial& p = it->second;
  if (index >= p.info.chunks_total) {
    return Error{Errc::corrupt, "chunk index " + std::to_string(index) + " out of range"};
  }
  const std::uint32_t expect = chunk_size_at(p.info.size, index, p.info.chunk_bytes);
  if (data.empty()) {
    if (chunk_digest != synthetic_chunk_digest(digest, index)) {
      return Error{Errc::corrupt, "synthetic chunk digest mismatch"};
    }
  } else {
    if (data.size() != expect) {
      return Error{Errc::corrupt, "chunk size " + std::to_string(data.size()) +
                                      " != expected " + std::to_string(expect)};
    }
    if (hash(data) != chunk_digest) {
      return Error{Errc::corrupt, "chunk payload digest mismatch"};
    }
  }
  if (p.have[index]) return ChunkAdd::duplicate;
  p.have[index] = true;
  ++p.info.chunks_have;
  if (!data.empty()) {
    if (!p.any_real) {
      // The lecture buffer: one allocation covering the whole blob, sized
      // here and never reallocated (served slices alias into it).
      p.data = std::make_shared<Bytes>(p.info.size, 0);
      partial_bytes_ += p.info.size;
      p.any_real = true;
    }
    // The single memcpy of a chunk's life on this station: assembly into
    // the lecture buffer. Every subsequent serve/relay is a slice of it.
    std::copy(data.begin(), data.end(),
              p.data->begin() + static_cast<std::ptrdiff_t>(chunk_offset(index, p.info.chunk_bytes)));
    p.real[index] = true;
    p.chunk_digests[index] = chunk_digest;
  }
  if (p.info.chunks_have == p.info.chunks_total) return promote_partial(p);
  return ChunkAdd::accepted;
}

const BlobStore::PartialInfo* BlobStore::partial(const Digest128& digest) const {
  auto it = partials_.find(digest);
  return it == partials_.end() ? nullptr : &it->second.info;
}

bool BlobStore::has_chunk(const Digest128& digest, std::uint32_t index,
                          std::uint32_t chunk_bytes) const {
  if (auto id = find(digest); id.has_value()) {
    const BlobInfo* i = info(*id);
    return i != nullptr && index < chunk_count(i->size, chunk_bytes);
  }
  auto it = partials_.find(digest);
  return it != partials_.end() && it->second.info.chunk_bytes == chunk_bytes &&
         index < it->second.info.chunks_total && it->second.have[index];
}

std::vector<std::uint32_t> BlobStore::missing_chunks(const Digest128& digest,
                                                     std::uint32_t max) const {
  std::vector<std::uint32_t> out;
  auto it = partials_.find(digest);
  if (it == partials_.end()) return out;
  const Partial& p = it->second;
  for (std::uint32_t i = 0; i < p.info.chunks_total && out.size() < max; ++i) {
    if (!p.have[i]) out.push_back(i);
  }
  return out;
}

Digest128 BlobStore::stored_chunk_digest(Entry& e, std::uint32_t index,
                                         std::uint32_t chunk_bytes) {
  if (e.digest_chunk_bytes != chunk_bytes) {
    e.digest_chunk_bytes = chunk_bytes;
    e.chunk_digests.assign(chunk_count(e.info.size, chunk_bytes), std::nullopt);
  }
  std::optional<Digest128>& d = e.chunk_digests[index];
  if (!d) {
    d = hash(std::span<const std::uint8_t>(*e.data).subspan(
        chunk_offset(index, chunk_bytes), chunk_size_at(e.info.size, index, chunk_bytes)));
  }
  return *d;
}

Result<BlobStore::ChunkSlice> BlobStore::chunk_payload(const Digest128& digest,
                                                       std::uint32_t index,
                                                       std::uint32_t chunk_bytes) {
  if (chunk_bytes == 0 || chunk_bytes > kMaxChunkBytes) {
    return Error{Errc::invalid_argument, "bad chunk size"};
  }
  if (auto id = find(digest); id.has_value()) {
    const BlobInfo* i = info(*id);
    if (i == nullptr || index >= chunk_count(i->size, chunk_bytes)) {
      return Error{Errc::unavailable, "chunk index out of range"};
    }
    if (!i->resident) {  // synthetic: size-only chunk
      return ChunkSlice{net::Payload{}, synthetic_chunk_digest(digest, index)};
    }
    // Fault the payload in (disk-backed stores) before slicing.
    auto span = get(*id);
    if (!span) return span.error();
    Entry& e = blobs_.at(id->value());
    const std::uint64_t off = chunk_offset(index, chunk_bytes);
    const std::uint32_t len = chunk_size_at(i->size, index, chunk_bytes);
    return ChunkSlice{net::Payload::wrap(e.data, off, len),
                      stored_chunk_digest(e, index, chunk_bytes)};
  }
  auto it = partials_.find(digest);
  if (it == partials_.end() || it->second.info.chunk_bytes != chunk_bytes ||
      index >= it->second.info.chunks_total || !it->second.have[index]) {
    return Error{Errc::unavailable, "chunk not held locally"};
  }
  const Partial& p = it->second;
  if (!p.real[index]) {  // received synthetically
    return ChunkSlice{net::Payload{}, synthetic_chunk_digest(digest, index)};
  }
  const std::uint64_t off = chunk_offset(index, chunk_bytes);
  const std::uint32_t len = chunk_size_at(p.info.size, index, chunk_bytes);
  return ChunkSlice{net::Payload::wrap(p.data, off, len), p.chunk_digests[index]};
}

void BlobStore::chunk_bits(const Digest128& digest, std::uint64_t size,
                           std::uint32_t chunk_bytes, std::uint64_t bit_offset,
                           std::vector<std::uint64_t>& words) const {
  if (chunk_bytes == 0) return;
  const std::uint32_t total = chunk_count(size, chunk_bytes);
  auto set_bit = [&](std::uint64_t i) {
    const std::uint64_t bit = bit_offset + i;
    if (bit / 64 < words.size()) words[bit / 64] |= std::uint64_t{1} << (bit % 64);
  };
  if (find(digest).has_value()) {
    for (std::uint32_t i = 0; i < total; ++i) set_bit(i);
    return;
  }
  auto it = partials_.find(digest);
  if (it == partials_.end()) return;
  const Partial& p = it->second;
  if (p.info.chunk_bytes != chunk_bytes || p.info.chunks_total != total) return;
  for (std::uint32_t i = 0; i < total; ++i) {
    if (p.have[i]) set_bit(i);
  }
}

void BlobStore::drop_partial(const Digest128& digest) {
  auto it = partials_.find(digest);
  if (it == partials_.end()) return;
  if (it->second.any_real) partial_bytes_ -= it->second.info.size;
  partials_.erase(it);
}

std::uint64_t BlobStore::gc() {
  std::uint64_t reclaimed = 0;
  for (auto it = blobs_.begin(); it != blobs_.end();) {
    if (it->second.info.refs == 0) {
      reclaimed += it->second.info.size;
      stored_bytes_ -= it->second.info.size;
      BlobMetrics::get().evictions.inc();
      BlobMetrics::get().stored_bytes.sub(static_cast<std::int64_t>(it->second.info.size));
      remove_entry_files(it->second);
      by_digest_.erase(it->second.info.digest);
      it = blobs_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

}  // namespace wdoc::blob
