#include "query/aggregate.h"

#include <algorithm>
#include <cmath>

#include "data/value.h"

namespace dbm::query {

using data::CompareValues;
using data::IsNull;
using data::TypeOf;
using data::ValueType;

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kAvg: return "avg";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
  }
  return "?";
}

namespace {
double NumericOf(const Value& v) {
  return TypeOf(v) == ValueType::kInt
             ? static_cast<double>(std::get<int64_t>(v))
             : (TypeOf(v) == ValueType::kDouble ? std::get<double>(v) : 0.0);
}
}  // namespace

data::Schema GroupAccumulator::OutputSchema(
    const data::Schema& input, const std::vector<size_t>& group_by,
    const std::vector<AggSpec>& aggs) {
  std::vector<data::Field> fields;
  for (size_t g : group_by) fields.push_back(input.field(g));
  for (const AggSpec& a : aggs) {
    data::ValueType type = a.func == AggFunc::kCount
                               ? data::ValueType::kInt
                               : data::ValueType::kDouble;
    fields.push_back(data::Field{
        a.out_name.empty() ? std::string(AggFuncName(a.func)) : a.out_name,
        type});
  }
  return data::Schema(std::move(fields));
}

GroupAccumulator::GroupState GroupAccumulator::MakeState() const {
  GroupState gs;
  gs.sums.assign(aggs_.size(), 0);
  gs.mins.assign(aggs_.size(), 0);
  gs.maxs.assign(aggs_.size(), 0);
  gs.counts.assign(aggs_.size(), 0);
  return gs;
}

namespace {
/// Order-sensitive hash of the key columns (FNV basis seed, HashCombine
/// per column). Equal-by-CompareValues keys hash alike because HashValue
/// already sends 3 and 3.0 to the same image.
uint64_t HashKeyCols(const Tuple& tuple, const std::vector<size_t>& cols) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t c : cols) {
    h = data::HashCombine(h, data::HashValue(tuple.at(c)));
  }
  return h;
}
uint64_t HashKeyTuple(const Tuple& key) {
  uint64_t h = 14695981039346656037ULL;
  for (const Value& v : key.values) {
    h = data::HashCombine(h, data::HashValue(v));
  }
  return h;
}
}  // namespace

Status GroupAccumulator::FoldRow(const Tuple& tuple, Tuple* movable) {
  uint64_t h = HashKeyCols(tuple, group_by_);
  uint32_t idx = 0;
  auto head = index_.find(h);
  if (head != index_.end()) {
    for (uint32_t g = head->second; g != 0; g = groups_[g - 1].next) {
      const Tuple& key = groups_[g - 1].key;
      bool equal = key.size() == group_by_.size();
      for (size_t k = 0; equal && k < group_by_.size(); ++k) {
        equal = CompareValues(key.at(k), tuple.at(group_by_[k])) == 0;
      }
      if (equal) {
        idx = g;
        break;
      }
    }
  }
  if (idx == 0) {
    Group group;
    group.key.values.reserve(group_by_.size());
    for (auto it = group_by_.begin(); it != group_by_.end(); ++it) {
      // A column the GROUP BY lists again later is copied, so only its
      // last use may steal the value.
      if (movable != nullptr &&
          std::find(it + 1, group_by_.end(), *it) == group_by_.end()) {
        group.key.values.push_back(std::move(movable->values[*it]));
      } else {
        group.key.values.push_back(tuple.at(*it));
      }
    }
    group.st = MakeState();
    uint32_t& head_slot = index_[h];
    group.next = head_slot;
    groups_.push_back(std::move(group));
    head_slot = static_cast<uint32_t>(groups_.size());
    idx = head_slot;
  }
  GroupState& gs = groups_[idx - 1].st;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    if (a.func == AggFunc::kCount) {
      ++gs.counts[i];
      continue;
    }
    const Value& v = tuple.at(a.column);
    if (IsNull(v)) continue;
    double d = NumericOf(v);
    if (gs.counts[i] == 0) {
      gs.mins[i] = gs.maxs[i] = d;
    } else {
      gs.mins[i] = std::min(gs.mins[i], d);
      gs.maxs[i] = std::max(gs.maxs[i], d);
    }
    gs.sums[i] += d;
    ++gs.counts[i];
  }
  return Status::OK();
}

void GroupAccumulator::FoldPartial(Tuple key, const double* sums,
                                   const double* mins, const double* maxs,
                                   const uint64_t* counts) {
  uint64_t h = HashKeyTuple(key);
  uint32_t idx = 0;
  auto head = index_.find(h);
  if (head != index_.end()) {
    for (uint32_t g = head->second; g != 0; g = groups_[g - 1].next) {
      const Tuple& k = groups_[g - 1].key;
      bool equal = k.size() == key.size();
      for (size_t c = 0; equal && c < key.size(); ++c) {
        equal = CompareValues(k.at(c), key.at(c)) == 0;
      }
      if (equal) {
        idx = g;
        break;
      }
    }
  }
  if (idx == 0) {
    Group group;
    group.key = std::move(key);
    group.st = MakeState();
    uint32_t& head_slot = index_[h];
    group.next = head_slot;
    groups_.push_back(std::move(group));
    head_slot = static_cast<uint32_t>(groups_.size());
    idx = head_slot;
  }
  GroupState& gs = groups_[idx - 1].st;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (counts[i] == 0) continue;
    if (gs.counts[i] == 0) {
      gs.mins[i] = mins[i];
      gs.maxs[i] = maxs[i];
    } else {
      gs.mins[i] = std::min(gs.mins[i], mins[i]);
      gs.maxs[i] = std::max(gs.maxs[i], maxs[i]);
    }
    gs.sums[i] += sums[i];
    gs.counts[i] += counts[i];
  }
}

void GroupAccumulator::Merge(const GroupAccumulator& other) {
  for (const Group& group : other.groups_) {
    FoldPartial(group.key, group.st.sums.data(), group.st.mins.data(),
                group.st.maxs.data(), group.st.counts.data());
  }
}

Tuple GroupAccumulator::FinishGroup(const Tuple& key,
                                    const GroupState& gs) const {
  Tuple out = key;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].func) {
      case AggFunc::kCount:
        out.values.emplace_back(static_cast<int64_t>(gs.counts[i]));
        break;
      case AggFunc::kSum:
        out.values.emplace_back(gs.sums[i]);
        break;
      case AggFunc::kAvg:
        out.values.emplace_back(
            gs.counts[i] == 0
                ? Value{}
                : Value{gs.sums[i] / static_cast<double>(gs.counts[i])});
        break;
      case AggFunc::kMin:
        out.values.emplace_back(gs.counts[i] == 0 ? Value{}
                                                  : Value{gs.mins[i]});
        break;
      case AggFunc::kMax:
        out.values.emplace_back(gs.counts[i] == 0 ? Value{}
                                                  : Value{gs.maxs[i]});
        break;
    }
  }
  return out;
}

std::vector<Tuple> GroupAccumulator::Finish() const {
  // Deterministic output order regardless of hash/insertion order: sort
  // by the key's string form (the historical map ordering), breaking the
  // rare string-form tie by value comparison.
  std::vector<std::pair<std::string, uint32_t>> order;
  order.reserve(groups_.size());
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    order.emplace_back(groups_[g].key.ToString(), g);
  }
  std::sort(order.begin(), order.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              const Tuple& ka = groups_[a.second].key;
              const Tuple& kb = groups_[b.second].key;
              for (size_t c = 0; c < ka.size() && c < kb.size(); ++c) {
                int cmp = CompareValues(ka.at(c), kb.at(c));
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  std::vector<Tuple> out;
  out.reserve(groups_.size());
  for (const auto& [key_str, g] : order) {
    out.push_back(FinishGroup(groups_[g].key, groups_[g].st));
  }
  return out;
}

HashAggregate::HashAggregate(OperatorPtr child, std::vector<size_t> group_by,
                             std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  schema_ = GroupAccumulator::OutputSchema(child_->schema(), group_by_, aggs_);
}

Status HashAggregate::Open() {
  DBM_RETURN_NOT_OK(child_->Open());
  acc_ = GroupAccumulator(group_by_, aggs_);
  finished_.clear();
  emit_pos_ = 0;
  input_done_ = false;
  return Status::OK();
}

Result<Step> HashAggregate::Next(SimTime now) {
  while (!input_done_) {
    DBM_ASSIGN_OR_RETURN(Step step, child_->Next(now));
    switch (step.kind) {
      case Step::Kind::kTuple:
        ++stats_.consumed_left;
        // Move: the input row is consumed here; a fresh group steals its
        // key values instead of copying them.
        DBM_RETURN_NOT_OK(acc_.Fold(std::move(step.tuple)));
        break;
      case Step::Kind::kNotReady:
        return step;
      case Step::Kind::kEnd:
        input_done_ = true;
        finished_ = acc_.Finish();
        break;
    }
  }
  if (emit_pos_ >= finished_.size()) return Step::End();
  return Emit(std::move(finished_[emit_pos_++]), now);
}

Status HashAggregate::Close() { return child_->Close(); }

SortOp::SortOp(OperatorPtr child, size_t column, bool ascending)
    : child_(std::move(child)), column_(column), ascending_(ascending) {}

Status SortOp::Open() {
  DBM_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  done_ = false;
  pos_ = 0;
  return Status::OK();
}

Result<Step> SortOp::Next(SimTime now) {
  while (!done_) {
    DBM_ASSIGN_OR_RETURN(Step step, child_->Next(now));
    switch (step.kind) {
      case Step::Kind::kTuple:
        ++stats_.consumed_left;
        rows_.push_back(std::move(step.tuple));
        break;
      case Step::Kind::kNotReady:
        return step;
      case Step::Kind::kEnd: {
        done_ = true;
        size_t col = column_;
        bool asc = ascending_;
        std::stable_sort(rows_.begin(), rows_.end(),
                         [col, asc](const Tuple& a, const Tuple& b) {
                           int c = CompareValues(a.at(col), b.at(col));
                           return asc ? c < 0 : c > 0;
                         });
        break;
      }
    }
  }
  if (pos_ >= rows_.size()) return Step::End();
  // Move, not copy: the sorted rows are emitted exactly once.
  return Emit(std::move(rows_[pos_++]), now);
}

Status SortOp::Close() { return child_->Close(); }

}  // namespace dbm::query
