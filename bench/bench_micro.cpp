// Microbenchmarks for the measurement substrates the engine calls on the
// hot path: Shannon entropy, magic identification, the similarity
// digest, and the crypto primitives. These are the knobs behind §V-H's
// per-operation overhead — if one regresses, bench_perf's BM_* engine=1
// rows and perfbench's per-layer stage means move with it.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "entropy/entropy.hpp"
#include "magic/magic.hpp"
#include "simhash/similarity.hpp"

using namespace cryptodrop;

namespace {

Bytes prose_bytes(std::size_t n) {
  Rng rng(1);
  return to_bytes(synth_prose(rng, n));
}

Bytes random_bytes(std::size_t n) {
  Rng rng(2);
  return rng.bytes(n);
}

void BM_ShannonEntropy(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(entropy::shannon(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShannonEntropy)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_MagicIdentify(benchmark::State& state) {
  const Bytes data = prose_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(magic::identify(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MagicIdentify)->Arg(4 << 10)->Arg(64 << 10);

void BM_SimilarityDigest(benchmark::State& state) {
  const Bytes data = prose_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simhash::SimilarityDigest::compute(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimilarityDigest)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_SimilarityCompare(benchmark::State& state) {
  const Bytes a = prose_bytes(static_cast<std::size_t>(state.range(0)));
  Bytes b = a;
  b[b.size() / 2] ^= 1;
  const auto da = simhash::SimilarityDigest::compute(ByteView(a));
  const auto db = simhash::SimilarityDigest::compute(ByteView(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(da->compare(*db));
  }
}
BENCHMARK(BM_SimilarityCompare)->Arg(64 << 10)->Arg(1 << 20);

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64 << 10)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  const Bytes key = random_bytes(32);
  const Bytes nonce = random_bytes(12);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::ChaCha20 cipher(key, nonce);
    benchmark::DoNotOptimize(cipher.transform(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64 << 10)->Arg(1 << 20);

void BM_Aes128Ctr(benchmark::State& state) {
  const Bytes key = random_bytes(16);
  const Bytes nonce = random_bytes(12);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::Aes128Ctr cipher(key, nonce);
    benchmark::DoNotOptimize(cipher.transform(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(64 << 10);

void BM_WeightedMeanUpdate(benchmark::State& state) {
  entropy::WeightedEntropyMean mean;
  double e = 0.0;
  for (auto _ : state) {
    mean.add(e, 4096);
    e = e < 8.0 ? e + 0.001 : 0.0;
    benchmark::DoNotOptimize(mean.mean());
  }
}
BENCHMARK(BM_WeightedMeanUpdate);

}  // namespace

BENCHMARK_MAIN();
