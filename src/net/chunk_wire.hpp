// Wire format of the chunked transfer protocol (push and repair paths).
//
//   ChunkData   one sequence-numbered, content-hashed chunk. transfer_id
//               != 0 is push data (a stripe relay, or a chunk served to a
//               SwarmReq) that the receiver relays on down its tree;
//               transfer_id == 0 is repair/pull data riding ahead of its
//               ChunkRsp summary on the same FIFO link. Pushes open with
//               net::SwarmBegin (net/swarm_wire.hpp).
//   ChunkReq    pull request for an explicit list of missing chunk indices.
//   ChunkRsp    pull summary: how many of the requested chunks were served.
//
// ChunkData's bulk bytes do NOT travel inside the encoded header: they ride
// as net::Message::body, a refcounted Payload slice, so a relay re-encodes
// only the ~50-byte header per hop and forwards the received bytes
// untouched. encode() renders the header; decode() takes the header bytes
// and the out-of-band body and cross-checks them (a body/length or
// body/flag mismatch is corruption).
//
// Every decoder fails with Errc::corrupt on truncation, implausible counts,
// or oversized lengths — hostile input must never drive an allocation or
// out-of-bounds read (fuzzed in tests/test_decode_fuzz.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"
#include "net/payload.hpp"

namespace wdoc::net {

inline constexpr const char* kChunkData = "dist.chunk";
inline constexpr const char* kChunkReq = "dist.chunk_req";
inline constexpr const char* kChunkRsp = "dist.chunk_rsp";

// Decode-time ceiling on declared chunk sizes (mirrors blob::kMaxChunkBytes
// without reaching into the blob layer).
inline constexpr std::uint32_t kMaxWireChunkBytes = 64u << 20;

struct ChunkData {
  std::uint64_t req_id = 0;       // reserved: always 0, ignored on receipt
  std::uint64_t transfer_id = 0;  // != 0: part of a push transfer (relayed)
  Digest128 digest;               // blob being assembled
  std::uint32_t index = 0;        // sequence number within the blob
  std::uint32_t chunk_len = 0;    // bytes this chunk covers (charged on wire)
  Digest128 chunk_digest;         // content hash of this chunk
  bool has_payload = false;       // false = synthetic (size-only) transfer
  Payload payload;                // exactly chunk_len bytes when has_payload

  // Header only — `payload` travels out-of-band as Message::body.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkData> decode(std::span<const std::uint8_t> header,
                                                Payload body);
};

struct ChunkReq {
  std::uint64_t req_id = 0;
  std::string doc_key;
  Digest128 digest;
  std::uint64_t size = 0;         // whole-blob size (last chunk is ragged)
  std::uint8_t media_type = 0;
  std::uint32_t chunk_bytes = 0;
  std::vector<std::uint32_t> indices;  // missing chunks, ascending

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkReq> decode(std::span<const std::uint8_t> b);
};

struct ChunkRsp {
  std::uint64_t req_id = 0;
  std::uint32_t served = 0;
  std::uint32_t requested = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkRsp> decode(std::span<const std::uint8_t> b);
};

}  // namespace wdoc::net
