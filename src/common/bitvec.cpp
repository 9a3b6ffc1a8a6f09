#include "common/bitvec.hpp"

#include <bit>

#include "common/check.hpp"

namespace asyncdr {

BitVec::BitVec(std::size_t n, bool value)
    : words_(word_count(n), value ? ~std::uint64_t{0} : 0), size_(n) {
  trim_tail();
}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ASYNCDR_EXPECTS_MSG(bits[i] == '0' || bits[i] == '1',
                        "BitVec::from_string expects only '0'/'1'");
    v.set(i, bits[i] == '1');
  }
  return v;
}

void BitVec::set(std::size_t i, bool value) {
  ASYNCDR_EXPECTS(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVec::flip(std::size_t i) {
  ASYNCDR_EXPECTS(i < size_);
  words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
}

void BitVec::flip_all() {
  for (std::uint64_t& word : words_) word = ~word;
  trim_tail();
}

void BitVec::push_back(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, value);
}

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  ASYNCDR_EXPECTS(pos + len <= size_);
  BitVec out(len);
  for (std::size_t i = 0; i < len; ++i) out.set(i, get(pos + i));
  return out;
}

void BitVec::splice(std::size_t pos, const BitVec& src) {
  ASYNCDR_EXPECTS(pos + src.size() <= size_);
  for (std::size_t i = 0; i < src.size(); ++i) set(pos + i, src.get(i));
}

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

void BitVec::or_with(const BitVec& other) {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void BitVec::and_with(const BitVec& other) {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void BitVec::andnot_with(const BitVec& other) {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
}

bool BitVec::is_subset_of(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

std::size_t BitVec::count_and(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
  }
  return total;
}

int BitVec::count_trailing(std::uint64_t word) {
  return std::countr_zero(word);
}

std::optional<std::size_t> BitVec::first_difference(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t diff = words_[w] ^ other.words_[w];
    if (diff != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(diff));
    }
  }
  return std::nullopt;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

std::uint64_t BitVec::hash() const {
  std::uint64_t h = 14695981039346656037ull ^ size_;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

void BitVec::trim_tail() {
  if (size_ % kWordBits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (size_ % kWordBits)) - 1;
  }
}

}  // namespace asyncdr
