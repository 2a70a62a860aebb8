#include "harness.h"

#include <algorithm>

#include "common/str_util.h"

namespace perfbench {

using disco::Result;
using disco::Status;

int SpanRecorder::Begin(const char* name, int parent, int query) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.query = query;
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

Result<disco::sources::ExecutionResult> TapWrapper::Execute(
    const disco::algebra::Operator& subplan) {
  const int span = spans_->Begin("wrapper.execute", spans_->current_span(),
                                 spans_->current_query());
  Result<disco::sources::ExecutionResult> r = inner_->Execute(subplan);
  spans_->End(span);
  ++counts_->calls;
  if (r.ok()) {
    counts_->rows += static_cast<int64_t>(r->tuples.size());
    counts_->pages_read += r->pages_read;
  } else {
    ++counts_->failed;
  }
  return r;
}

Status Workload::Register(std::unique_ptr<disco::wrapper::Wrapper> w) {
  return med_->RegisterWrapper(
      std::make_unique<TapWrapper>(std::move(w), &counts_, &spans_));
}

namespace {

uint64_t Mix(uint64_t z) {  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Unqualified(const std::string& name) {
  const size_t dot = name.rfind('.');
  return disco::ToLower(dot == std::string::npos ? name
                                                 : name.substr(dot + 1));
}

}  // namespace

uint64_t HashRow(const std::vector<disco::Value>& values) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (const disco::Value& v : values) {
    h = Mix(h ^ static_cast<uint64_t>(v.Hash()));
  }
  return h;
}

Result<std::vector<uint64_t>> HashAnswer(
    const std::vector<std::string>& columns,
    const std::vector<disco::storage::Tuple>& tuples,
    const std::vector<std::string>& expected) {
  std::vector<size_t> order;
  if (expected.empty()) {  // positional: every column in answer order
    for (size_t c = 0; c < columns.size(); ++c) order.push_back(c);
  }
  for (const std::string& want : expected) {
    const std::string key = Unqualified(want);
    size_t found = columns.size();
    for (size_t c = 0; c < columns.size(); ++c) {
      if (Unqualified(columns[c]) == key) {
        found = c;
        break;
      }
    }
    if (found == columns.size()) {
      return Status::NotFound("answer has no column '" + want + "' (has " +
                              disco::JoinStrings(columns, ",") + ")");
    }
    order.push_back(found);
  }
  std::vector<uint64_t> out;
  out.reserve(tuples.size());
  std::vector<disco::Value> row(order.size());
  for (const disco::storage::Tuple& t : tuples) {
    for (size_t i = 0; i < order.size(); ++i) {
      // A malformed row that slipped past the guard may be short: hash
      // what is there, so it cannot match a reference row by accident.
      row[i] = order[i] < t.size() ? t[order[i]] : disco::Value();
    }
    uint64_t h = HashRow(row);
    if (t.size() != columns.size()) h = ~h;
    out.push_back(h);
  }
  std::sort(out.begin(), out.end());
  return out;
}

AnswerCheck CompareAnswers(const std::vector<uint64_t>& expected,
                           const std::vector<uint64_t>& got) {
  AnswerCheck c;
  c.expected = static_cast<int64_t>(expected.size());
  size_t i = 0, j = 0;
  while (i < expected.size() && j < got.size()) {
    if (expected[i] == got[j]) {
      ++c.matched;
      ++i;
      ++j;
    } else if (expected[i] < got[j]) {
      ++i;
    } else {
      ++c.unexpected;
      ++j;
    }
  }
  c.unexpected += static_cast<int64_t>(got.size() - j);
  return c;
}

int BlockMix::Next() {
  int total = 0;
  size_t best = 0;
  for (size_t t = 0; t < weights_.size(); ++t) {
    current_[t] += weights_[t];
    total += weights_[t];
    if (current_[t] > current_[best]) best = t;
  }
  current_[best] -= total;
  return static_cast<int>(best);
}

}  // namespace perfbench
