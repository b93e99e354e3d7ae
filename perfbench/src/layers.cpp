// Per-layer replays: each times one public function of one layer on
// inputs made from the run's seed, outside any server or simulation.
#include <algorithm>

#include "blob/blob_store.hpp"
#include "blob/chunk.hpp"
#include "http/gateway.hpp"
#include "http/parser.hpp"
#include "http/search.hpp"
#include "net/chunk_wire.hpp"
#include "net/swarm_wire.hpp"
#include "storage/database.hpp"
#include "swarm/scheduler.hpp"
#include "workload/library_corpus.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wdoc;

constexpr int kBatches = 5;  // each replay reports the median batch

// Median over kBatches of (batch time / ops), in nanoseconds per op.
template <typename Fn>
double ns_per_op(std::size_t ops, Fn&& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    batch();
    per_op.push_back(static_cast<double>(nanos_between(t0, Clock::now())) /
                     static_cast<double>(ops));
  }
  return median(per_op);
}

void library_replays(Report& report, std::uint64_t seed) {
  workload::LibraryCorpusConfig corpus;
  corpus.seed = seed;
  const auto entries = workload::library_corpus(corpus);
  std::vector<library::VirtualLibrary> shards(corpus.shards);
  workload::populate_shards(shards, entries, corpus);
  const auto queries = workload::query_pool(corpus, 64);

  // The request bytes of a library_mix pass.
  workload::HttpTraceConfig trace;
  trace.ops = 2000;
  trace.seed = mix64(seed);
  std::string wire;
  const auto ops = workload::open_loop_http_trace(trace);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    wire += library_request(ops[i], ops[i].user, entries, queries, i);
  }
  std::vector<http::Request> parsed(ops.size());
  {
    ScopedSpan span("http.parse");
    report.add("http.parse_ns_per_req", ns_per_op(ops.size(), [&] {
                 http::RequestParser parser;
                 (void)parser.feed(wire);
                 for (auto& req : parsed) (void)parser.next(req);
               }),
               "ns");
  }

  // Responses the gateway gives to those requests (ledger ops included).
  auto db = storage::Database::in_memory();
  http::StorageDocumentSource docs(*db);
  for (const auto& e : entries) docs.put(e.course_number, workload::course_document(e)).expect("put");
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& s : shards) shard_ptrs.push_back(&s);
  http::Gateway gateway(http::GatewayConfig{}, shard_ptrs, &docs);
  std::vector<http::Response> responses;
  for (const auto& req : parsed) responses.push_back(gateway.handle(req));
  {
    ScopedSpan span("http.serialize");
    std::size_t bytes = 0;
    report.add("http.serialize_ns_per_rsp", ns_per_op(responses.size(), [&] {
                 for (const auto& r : responses) bytes += http::serialize(r).size();
               }),
               "ns");
    if (bytes == 0) report.correct = false;
  }

  // Each pool query: median of 20 runs through FederatedSearch::search.
  std::vector<const library::VirtualLibrary*> const_shards(shard_ptrs.begin(), shard_ptrs.end());
  const http::FederatedSearch search(const_shards);
  std::vector<double> query_us;
  {
    ScopedSpan span("search.query");
    for (const auto& q : queries) {
      std::vector<double> runs;
      for (int r = 0; r < 20; ++r) {
        const auto t0 = Clock::now();
        const auto hits = search.search(q, 10);
        runs.push_back(static_cast<double>(nanos_between(t0, Clock::now())) / 1e3);
        if (hits.size() > 10) report.correct = false;
      }
      query_us.push_back(median(runs));
    }
  }
  report.add("search.query_us.p50", median(query_us), "us");
  report.add("search.query_us.max", *std::max_element(query_us.begin(), query_us.end()), "us");
}

void blob_replays(Report& report, std::uint64_t seed) {
  constexpr std::uint32_t kChunk = 256 << 10;
  constexpr std::uint32_t kChunks = 40;  // a 10 MiB lecture
  const Bytes chunk = seeded_bytes(kChunk, seed);
  {
    ScopedSpan span("blob.digest");
    constexpr int kReps = 64;
    std::uint64_t sink = 0;
    const double ns = ns_per_op(kReps, [&] {
      for (int r = 0; r < kReps; ++r) sink += digest128(chunk).hi;
    });
    report.add("blob.digest_mb_per_s", static_cast<double>(kChunk) / ns * 1e3, "MB/s");
    asm volatile("" : : "r"(sink) : "memory");  // keeps the digests observable
  }

  // add_chunk of the first kChunks-1 chunks of a blob (the last one would
  // promote the blob and digest all of it).
  const Bytes blob_bytes = seeded_bytes(static_cast<std::size_t>(kChunk) * kChunks, seed + 1);
  const Digest128 blob_digest = digest128(blob_bytes);
  std::vector<Digest128> chunk_digests;
  for (std::uint32_t i = 0; i < kChunks; ++i) {
    chunk_digests.push_back(blob::real_chunk_digest(
        std::span(blob_bytes).subspan(static_cast<std::size_t>(i) * kChunk, kChunk)));
  }
  std::vector<double> add_us;
  {
    ScopedSpan span("blob.add_chunk");
    for (int b = 0; b < kBatches; ++b) {
      blob::BlobStore store;
      (void)store.begin_partial(blob_digest, blob_bytes.size(), blob::MediaType::video, kChunk)
          .expect("begin_partial");
      const auto t0 = Clock::now();
      for (std::uint32_t i = 0; i + 1 < kChunks; ++i) {
        auto added = store.add_chunk(
            blob_digest, i, chunk_digests[i],
            std::span(blob_bytes).subspan(static_cast<std::size_t>(i) * kChunk, kChunk));
        if (!added.is_ok()) report.correct = false;
      }
      add_us.push_back(static_cast<double>(nanos_between(t0, Clock::now())) / 1e3 / (kChunks - 1));
    }
  }
  report.add("blob.add_chunk_us", median(add_us), "us");
}

void wire_replays(Report& report, std::uint64_t seed) {
  constexpr int kReps = 20000;
  net::ChunkData d;
  d.req_id = seed | 1;
  d.transfer_id = mix64(seed);
  d.digest = digest128("perfbench-blob");
  d.index = 7;
  const Bytes chunk = seeded_bytes(256 << 10, seed);
  d.chunk_len = static_cast<std::uint32_t>(chunk.size());
  d.chunk_digest = digest128(chunk);
  d.has_payload = true;
  d.payload = net::Payload::copy_of(chunk);
  ScopedSpan span("wire");
  Bytes header;
  report.add("wire.chunk_encode_ns", ns_per_op(kReps, [&] {
               for (int r = 0; r < kReps; ++r) header = d.encode();
             }),
             "ns");
  std::uint64_t ok = 0;
  report.add("wire.chunk_decode_ns", ns_per_op(kReps, [&] {
               for (int r = 0; r < kReps; ++r) ok += net::ChunkData::decode(header, d.payload).is_ok();
             }),
             "ns");

  net::SwarmHave have;
  have.transfer_id = mix64(seed + 1);
  have.position = 5;
  have.backlog = 2;
  have.total_chunks = 40;
  have.words = {mix64(seed + 2) & ((1ULL << 40) - 1)};
  have.pending_words = {mix64(seed + 3) & ((1ULL << 40) - 1) & ~have.words[0]};
  const Bytes have_bytes = have.encode();
  report.add("wire.swarm_have_decode_ns", ns_per_op(kReps, [&] {
               for (int r = 0; r < kReps; ++r) ok += net::SwarmHave::decode(have_bytes).is_ok();
             }),
             "ns");
  if (ok != 2ULL * kBatches * kReps) report.correct = false;
}

// SwarmScheduler::plan on a 63-peer, 40-chunk state where this station and
// every peer hold a seeded half of the chunks and both stripe trees have
// stalled, so the plan pulls.
void swarm_replay(Report& report, std::uint64_t seed) {
  constexpr std::uint32_t kChunks = 40;
  constexpr std::uint64_t kPeers = 62;
  constexpr int kReps = 200;
  swarm::SwarmConfig cfg;
  cfg.enabled = true;
  cfg.trees = 2;
  auto half = [&](std::uint64_t salt) {
    swarm::Bitmap b(kChunks);
    for (std::uint32_t g = 0; g < kChunks; ++g) {
      if (mix64(seed * 131 + salt * kChunks + g) & 1) b.set(g);
    }
    return b;
  };
  std::vector<swarm::SwarmScheduler> scheds;
  scheds.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    swarm::SwarmScheduler& s = scheds.emplace_back(kChunks, cfg, seed + r, SimTime::zero());
    s.set_stripe_parent(0, 2);
    s.set_stripe_parent(1, 3);
    s.seed_self(half(0), SimTime::zero());
    for (std::uint64_t p = 2; p < 2 + kPeers; ++p) {
      s.add_peer(p);
      s.peer_update(p, half(p).words(), 0, SimTime::zero());
    }
  }
  ScopedSpan span("swarm.plan");
  std::size_t planned = 0;
  const auto t0 = Clock::now();
  for (auto& s : scheds) planned += s.plan(SimTime::seconds(10)).size();
  report.add("swarm.plan_us",
             static_cast<double>(nanos_between(t0, Clock::now())) / 1e3 / kReps, "us");
  if (planned == 0) report.correct = false;
}

}  // namespace

void add_layer_replays(Report& report, std::uint64_t seed) {
  library_replays(report, seed);
  blob_replays(report, seed);
  wire_replays(report, seed);
  swarm_replay(report, seed);
}

}  // namespace perfbench
