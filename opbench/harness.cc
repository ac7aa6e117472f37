#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "obs/clock.h"

namespace opbench {

namespace {
constexpr int kPrintedFailures = 10;

// The calibration kernel: build and probe a 2,000-entry ordered map with
// short string keys. Like the library's tree, plan and simulator code it
// allocates small nodes and chases pointers through a working set that
// lives in the core's L2, which is what other tenants disturb (README.md).
// Over 150 s of interleaved 0.1 s windows its speed tracked exact planning
// (log-rate correlation 0.66) far better than an ALU loop (0.54) or a
// 1 MiB pointer chase (0.46).
constexpr int kKernelKeys = 2000;
constexpr int kKernelRepsPerWindow = 12;
// Kernel repetitions per second on the reference host when it is quiet.
constexpr double kReferenceRepsPerSecond = 1500.0;
constexpr uint64_t kWindowEveryNs = 100'000'000;
// Keeps the kernel's result alive, so the compiler cannot drop the work.
volatile int64_t kernel_sink = 0;

int64_t KernelRep() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (int i = 0; i < kKernelKeys; ++i) {
      k.push_back("key-" + std::to_string(100000 + (i * 7919) % kKernelKeys));
    }
    return k;
  }();
  std::map<std::string, int> map;
  for (int i = 0; i < kKernelKeys; ++i) map.emplace(keys[static_cast<size_t>(i)], i);
  int64_t sum = 0;
  for (const std::string& key : keys) sum += map.find(key)->second;
  return sum;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string line;
  for (const std::string& word : words) {
    if (!line.empty()) line += ' ';
    line += word;
  }
  return line;
}

// Label of the s-expression node starting at `token`: "(i2" or "d3:41.5".
std::string NodeLabel(const std::string& token) {
  if (!token.empty() && token[0] == '(') return token.substr(1);
  return token.substr(0, token.find(':'));
}
}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failed_ < kPrintedFailures) {
    std::fprintf(stderr, "opbench: check failed: %s\n", what.c_str());
  }
  ++failed_;
}

void Checks::ExpectOk(const bcast::Status& status, const std::string& what) {
  Expect(status.ok(), what + ": " + status.ToString());
}

double Calibrator::Window() {
  using bcast::obs::MonotonicNanos;
  const uint64_t begin = MonotonicNanos();
  int64_t sum = 0;
  for (int r = 0; r < kKernelRepsPerWindow; ++r) sum += KernelRep();
  last_end_ns_ = MonotonicNanos();
  kernel_sink = sum;
  const double seconds = static_cast<double>(last_end_ns_ - begin) * 1e-9;
  speeds_.push_back(kKernelRepsPerWindow / seconds / kReferenceRepsPerSecond);
  return speeds_.back();
}

double Calibrator::Speed() {
  if (speeds_.empty() || bcast::obs::MonotonicNanos() - last_end_ns_ >= kWindowEveryNs) {
    return Window();
  }
  return speeds_.back();
}

void Calibrator::Mark(size_t samples) {
  if (bcast::obs::MonotonicNanos() - last_end_ns_ >= kWindowEveryNs) {
    marks_.push_back({samples, Window()});
  }
}

void Calibrator::BeginPass() {
  marks_.clear();
  marks_.push_back({0, Speed()});
}

std::vector<double> Calibrator::EndPass(size_t samples) {
  marks_.push_back({samples, Window()});
  std::vector<double> speed(samples);
  size_t m = 0;
  for (size_t i = 0; i < samples; ++i) {
    // Sample i was recorded between the last mark at or below i and the
    // first mark above it.
    while (marks_[m + 1].first <= i) ++m;
    speed[i] = 0.5 * (marks_[m].second + marks_[m + 1].second);
  }
  return speed;
}

std::string CorruptProgramOrder(const std::string& program_text) {
  std::vector<std::string> lines;
  std::istringstream in(program_text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  std::string root, child;
  for (const std::string& line : lines) {
    std::vector<std::string> words = SplitWords(line);
    if (words.size() >= 3 && words[0] == "tree") {
      root = NodeLabel(words[1]);
      child = NodeLabel(words[2]);
    }
  }
  // Swap the two buckets wherever they air; the root always airs first, so
  // afterwards its child airs before it.
  for (std::string& line : lines) {
    std::vector<std::string> words = SplitWords(line);
    if (words.empty() || words[0].empty() || words[0][0] != 'C') continue;
    for (std::string& word : words) {
      if (word == root) {
        word = child;
      } else if (word == child) {
        word = root;
      }
    }
    line = JoinWords(words);
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))), 1,
      values.size());
  return values[rank - 1];
}

}  // namespace opbench
