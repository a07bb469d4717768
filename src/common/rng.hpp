// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit Rng so that
// experiments are reproducible bit-for-bit. Rng wraps std::mt19937_64 with
// the distributions the library needs.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace zkg {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Derives an independent child stream; used to give each subsystem its
  /// own reproducible sequence regardless of consumption order elsewhere.
  Rng fork();

  /// Uniform real in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f);

  /// Gaussian with the given mean / standard deviation; stddev must be > 0.
  /// Each call builds a fresh std::normal_distribution and so discards the
  /// second value of the polar-method pair it generates. That is
  /// deliberate: the stream's whole state stays the engine, which state()
  /// serializes, and callers that interleave normal() with other draws
  /// (dataset synthesis, fill_normal/randn, weight init) keep their
  /// historical streams. A bulk draw that needs speed holds one
  /// distribution for the length of one call instead
  /// (data::gaussian_augment_into).
  float normal(float mean = 0.0f, float stddev = 1.0f);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(float p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          randint(0, static_cast<std::int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::int64_t> permutation(std::int64_t n);

  /// Serialized engine state as deterministic text; a stream restored with
  /// set_state() continues bit-identically. Used by training checkpoints.
  std::string state() const;
  /// Restores a stream captured by state(). Throws zkg::SerializationError
  /// when the text does not parse as an mt19937_64 state.
  void set_state(const std::string& state);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace zkg
