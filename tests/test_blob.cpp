// BlobStore tests: content-address dedup, ref counting, synthetic blobs,
// capacity enforcement, buffer-space gc semantics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "blob/blob_store.hpp"

namespace wdoc::blob {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(MediaType, NamesAndLayerSplit) {
  EXPECT_STREQ(media_type_name(MediaType::video), "video");
  EXPECT_TRUE(is_blob_layer(MediaType::video));
  EXPECT_TRUE(is_blob_layer(MediaType::midi));
  EXPECT_FALSE(is_blob_layer(MediaType::html));
  EXPECT_FALSE(is_blob_layer(MediaType::annotation));
}

TEST(MediaType, TypicalSizesOrderSensibly) {
  EXPECT_GT(typical_media_bytes(MediaType::video), typical_media_bytes(MediaType::audio));
  EXPECT_GT(typical_media_bytes(MediaType::audio), typical_media_bytes(MediaType::midi));
}

TEST(BlobStore, PutAndGetRoundTrip) {
  BlobStore store;
  auto id = store.put(bytes_of("lecture video bytes"), MediaType::video);
  ASSERT_TRUE(id.is_ok());
  auto data = store.get(id.value());
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value().size(), 19u);
  const BlobInfo* info = store.info(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->type, MediaType::video);
  EXPECT_EQ(info->refs, 1u);
  EXPECT_TRUE(info->resident);
}

TEST(BlobStore, IdenticalContentDedups) {
  BlobStore store;
  auto a = store.put(bytes_of("same clip"), MediaType::audio);
  auto b = store.put(bytes_of("same clip"), MediaType::audio);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(store.blob_count(), 1u);
  EXPECT_EQ(store.info(a.value())->refs, 2u);
  // Unique bytes counted once; logical twice.
  EXPECT_EQ(store.stored_bytes(), 9u);
  EXPECT_EQ(store.logical_bytes(), 18u);
}

TEST(BlobStore, DifferentContentDistinct) {
  BlobStore store;
  auto a = store.put(bytes_of("clip A"), MediaType::audio);
  auto b = store.put(bytes_of("clip B"), MediaType::audio);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(store.blob_count(), 2u);
}

TEST(BlobStore, SyntheticBlobsAccountSizeWithoutPayload) {
  BlobStore store;
  Digest128 d = digest128("ten megabyte video");
  auto id = store.put_synthetic(d, 10u << 20, MediaType::video);
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(store.stored_bytes(), 10u << 20);
  EXPECT_FALSE(store.info(id.value())->resident);
  EXPECT_EQ(store.get(id.value()).code(), Errc::unavailable);
}

TEST(BlobStore, SyntheticDedupsByDigest) {
  BlobStore store;
  Digest128 d = digest128("shared");
  auto a = store.put_synthetic(d, 100, MediaType::image);
  auto b = store.put_synthetic(d, 100, MediaType::image);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(store.stored_bytes(), 100u);
  EXPECT_EQ(store.logical_bytes(), 200u);
}

TEST(BlobStore, SyntheticUpgradedByRealPut) {
  BlobStore store;
  Bytes payload = bytes_of("real payload");
  Digest128 d = digest128(std::span<const std::uint8_t>(payload));
  auto synth = store.put_synthetic(d, payload.size(), MediaType::image);
  ASSERT_TRUE(synth.is_ok());
  auto real = store.put(payload, MediaType::image);
  ASSERT_TRUE(real.is_ok());
  EXPECT_EQ(synth.value(), real.value());
  EXPECT_TRUE(store.info(real.value())->resident);
  EXPECT_TRUE(store.get(real.value()).is_ok());
}

TEST(BlobStore, AddRefAndRelease) {
  BlobStore store;
  auto id = store.put(bytes_of("x"), MediaType::other).value();
  ASSERT_TRUE(store.add_ref(id).is_ok());
  EXPECT_EQ(store.info(id)->refs, 2u);
  ASSERT_TRUE(store.release(id).is_ok());
  ASSERT_TRUE(store.release(id).is_ok());
  EXPECT_EQ(store.info(id)->refs, 0u);
  EXPECT_EQ(store.release(id).code(), Errc::conflict);  // double release
  EXPECT_EQ(store.add_ref(BlobId{999}).code(), Errc::not_found);
}

TEST(BlobStore, ZeroRefBlobsLingerUntilGc) {
  BlobStore store;
  auto id = store.put(bytes_of("ephemeral lecture"), MediaType::video).value();
  ASSERT_TRUE(store.release(id).is_ok());
  // Buffer space still occupied (paper: duplicated instances live on as
  // buffers after a lecture).
  EXPECT_EQ(store.blob_count(), 1u);
  EXPECT_GT(store.stored_bytes(), 0u);
  std::uint64_t reclaimed = store.gc();
  EXPECT_EQ(reclaimed, 17u);
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
}

TEST(BlobStore, EvictNowFreesImmediately) {
  BlobStore store;
  auto id = store.put(bytes_of("gone"), MediaType::other).value();
  ASSERT_TRUE(store.release(id, /*evict_now=*/true).is_ok());
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.info(id), nullptr);
}

TEST(BlobStore, GcKeepsReferencedBlobs) {
  BlobStore store;
  auto keep = store.put(bytes_of("keep"), MediaType::other).value();
  auto drop = store.put(bytes_of("drop"), MediaType::other).value();
  ASSERT_TRUE(store.release(drop).is_ok());
  (void)store.gc();
  EXPECT_NE(store.info(keep), nullptr);
  EXPECT_EQ(store.info(drop), nullptr);
}

TEST(BlobStore, CapacityEnforced) {
  BlobStore store(/*capacity_bytes=*/10);
  EXPECT_TRUE(store.put(bytes_of("12345"), MediaType::other).is_ok());
  auto full = store.put(bytes_of("123456789"), MediaType::other);
  EXPECT_EQ(full.code(), Errc::out_of_space);
  // Dedup hit does not consume capacity.
  EXPECT_TRUE(store.put(bytes_of("12345"), MediaType::other).is_ok());
}

TEST(BlobStore, FindByDigest) {
  BlobStore store;
  Bytes payload = bytes_of("locatable");
  Digest128 d = digest128(std::span<const std::uint8_t>(payload));
  auto id = store.put(payload, MediaType::other).value();
  auto found = store.find(d);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, id);
  EXPECT_FALSE(store.find(digest128("missing")).has_value());
}

TEST(BlobStore, ReleaseAfterGcReportsNotFound) {
  BlobStore store;
  auto id = store.put(bytes_of("x"), MediaType::other).value();
  ASSERT_TRUE(store.release(id, true).is_ok());
  EXPECT_EQ(store.release(id).code(), Errc::not_found);
}

// --- chunk digests kept with the stored chunk --------------------------------

Bytes chunky_payload(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  return b;
}

// Checks every chunk `store` serves for `digest` at `chunk_bytes`: the
// digest travelling with the slice is the digest of the slice itself.
void expect_served_digests_match(BlobStore& store, const Digest128& digest, std::uint64_t size,
                                 std::uint32_t chunk_bytes, const char* what) {
  for (std::uint32_t i = 0; i < chunk_count(size, chunk_bytes); ++i) {
    auto chunk = store.chunk_payload(digest, i, chunk_bytes);
    ASSERT_TRUE(chunk.is_ok()) << what << " chunk " << i;
    EXPECT_EQ(chunk.value().payload.size(), chunk_size_at(size, i, chunk_bytes));
    EXPECT_EQ(chunk.value().digest, real_chunk_digest(chunk.value().payload))
        << what << " chunk " << i << " at " << chunk_bytes;
  }
}

TEST(BlobStore, ServedChunkDigestMatchesSlice) {
  // 10,500 bytes: a ragged last chunk at both chunk sizes.
  const Bytes payload = chunky_payload(10'500);
  const Digest128 digest = digest128(std::span<const std::uint8_t>(payload));
  for (std::uint32_t chunk_bytes : {1000u, 4096u}) {
    const std::uint32_t other = chunk_bytes == 1000u ? 4096u : 1000u;
    // Stored whole by put: digests are hashed on first serve, once.
    BlobStore source;
    ASSERT_TRUE(source.put(payload, MediaType::video).is_ok());
    EXPECT_EQ(source.digest_bytes(), payload.size());
    expect_served_digests_match(source, digest, payload.size(), chunk_bytes, "put");
    EXPECT_EQ(source.digest_bytes(), 2 * payload.size());
    expect_served_digests_match(source, digest, payload.size(), chunk_bytes, "put again");
    EXPECT_EQ(source.digest_bytes(), 2 * payload.size()) << "a second serve re-hashed";

    // A partial mid-assembly serves the digests it verified on receipt.
    BlobStore relay;
    ASSERT_TRUE(relay.begin_partial(digest, payload.size(), MediaType::video, chunk_bytes)
                    .is_ok());
    const std::uint32_t total = chunk_count(payload.size(), chunk_bytes);
    for (std::uint32_t i = 0; i + 1 < total; ++i) {
      auto chunk = source.chunk_payload(digest, i, chunk_bytes).expect("serve");
      ASSERT_TRUE(relay.add_chunk(digest, i, chunk.digest, chunk.payload).is_ok());
      auto held = relay.chunk_payload(digest, i, chunk_bytes).expect("relay serve");
      EXPECT_EQ(held.digest, real_chunk_digest(held.payload)) << "partial chunk " << i;
    }
    auto last = source.chunk_payload(digest, total - 1, chunk_bytes).expect("serve");
    ASSERT_EQ(relay.add_chunk(digest, total - 1, last.digest, last.payload).value(),
              BlobStore::ChunkAdd::completed);
    // Promoted: the verified digests moved into the complete entry.
    const std::uint64_t hashed = relay.digest_bytes();
    EXPECT_EQ(hashed, 2 * payload.size());  // chunk checks plus the blob gate
    expect_served_digests_match(relay, digest, payload.size(), chunk_bytes, "promoted");
    EXPECT_EQ(relay.digest_bytes(), hashed) << "serving a promoted blob re-hashed";
    // Asked at another chunk size, the promoted blob hashes its new chunks.
    expect_served_digests_match(relay, digest, payload.size(), other, "promoted, resized");
    EXPECT_EQ(relay.digest_bytes(), hashed + payload.size());
  }
}

// --- disk persistence -------------------------------------------------------

class DiskBlobStore : public ::testing::Test {
 protected:
  DiskBlobStore() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("wdoc-blobtest-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++)))
               .string();
  }
  ~DiskBlobStore() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  static inline int counter_ = 0;
};

TEST_F(DiskBlobStore, PayloadsSurviveReopen) {
  Digest128 digest;
  {
    auto store = BlobStore::open(dir_).expect("open");
    auto id = store->put(bytes_of("persistent video frames"), MediaType::video)
                  .expect("put");
    digest = store->info(id)->digest;
  }
  auto reopened = BlobStore::open(dir_).expect("reopen");
  auto id = reopened->find(digest);
  ASSERT_TRUE(id.has_value());
  const BlobInfo* info = reopened->info(*id);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->size, 23u);
  EXPECT_EQ(info->refs, 0u);  // owners re-reference during recovery
  EXPECT_TRUE(info->resident);
  // Lazy fault-in returns the original bytes.
  auto data = reopened->get(*id);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(Bytes(data.value().begin(), data.value().end()),
            bytes_of("persistent video frames"));
}

TEST_F(DiskBlobStore, SyntheticBlobsAreNotPersisted) {
  {
    auto store = BlobStore::open(dir_).expect("open");
    ASSERT_TRUE(
        store->put_synthetic(digest128("sim-only"), 1 << 20, MediaType::video)
            .is_ok());
  }
  auto reopened = BlobStore::open(dir_).expect("reopen");
  EXPECT_EQ(reopened->blob_count(), 0u);
}

TEST_F(DiskBlobStore, GcDeletesFiles) {
  auto store = BlobStore::open(dir_).expect("open");
  auto id = store->put(bytes_of("doomed"), MediaType::other).expect("put");
  ASSERT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator{}),
            1);
  ASSERT_TRUE(store->release(id).is_ok());
  EXPECT_GT(store->gc(), 0u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator{}),
            0);
}

TEST_F(DiskBlobStore, DedupAcrossReopen) {
  {
    auto store = BlobStore::open(dir_).expect("open");
    ASSERT_TRUE(store->put(bytes_of("shared clip"), MediaType::audio).is_ok());
  }
  auto reopened = BlobStore::open(dir_).expect("reopen");
  std::uint64_t before = reopened->stored_bytes();
  // Re-putting identical bytes hits the reloaded index: no new file.
  ASSERT_TRUE(reopened->put(bytes_of("shared clip"), MediaType::audio).is_ok());
  EXPECT_EQ(reopened->stored_bytes(), before);
  EXPECT_EQ(reopened->blob_count(), 1u);
}

TEST_F(DiskBlobStore, CorruptedBlobFileIsRejectedByTheReceiver) {
  // Three chunks; the blob file is damaged on disk after it was stored.
  constexpr std::uint32_t kChunk = 1024;
  const Bytes payload = chunky_payload(3000);
  const Digest128 digest = digest128(std::span<const std::uint8_t>(payload));
  {
    auto store = BlobStore::open(dir_).expect("open");
    ASSERT_TRUE(store->put(payload, MediaType::video).is_ok());
  }
  const std::string path = dir_ + "/" + digest.to_hex() + ".blob";
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, kChunk + 17, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, kChunk + 17, SEEK_SET), 0);
    ASSERT_NE(std::fputc(byte ^ 0x40, f), EOF);
    ASSERT_EQ(std::fclose(f), 0);
  }
  // The reopened store faults the damaged file in and serves from it.
  auto sender = BlobStore::open(dir_).expect("reopen");
  BlobStore receiver;
  ASSERT_TRUE(receiver.begin_partial(digest, payload.size(), MediaType::video, kChunk).is_ok());
  Result<BlobStore::ChunkAdd> last = BlobStore::ChunkAdd::accepted;
  for (std::uint32_t i = 0; i < chunk_count(payload.size(), kChunk); ++i) {
    auto chunk = sender->chunk_payload(digest, i, kChunk).expect("serve");
    last = receiver.add_chunk(digest, i, chunk.digest, chunk.payload);
  }
  // The damaged chunk's digest was first hashed from the damaged file, so
  // it passes the chunk check; the receiver's whole-blob gate at promotion
  // is what refuses the bytes under that address.
  EXPECT_EQ(last.code(), Errc::corrupt);
  EXPECT_FALSE(receiver.find(digest).has_value());
  EXPECT_EQ(receiver.missing_chunks(digest, 8).size(), 3u);
}

TEST_F(DiskBlobStore, ForeignFilesIgnored) {
  std::filesystem::create_directories(dir_);
  std::FILE* f = std::fopen((dir_ + "/readme.txt").c_str(), "wb");
  std::fputs("not a blob", f);
  std::fclose(f);
  auto store = BlobStore::open(dir_).expect("open");
  EXPECT_EQ(store->blob_count(), 0u);
}

}  // namespace
}  // namespace wdoc::blob
