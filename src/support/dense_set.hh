/**
 * @file
 * A set of small dense integer ids (register, predicate, rank) held
 * as a bitset of 64-bit words: O(1) insert/erase/count, word-wise
 * union and difference, and iteration in ascending id order. It keeps
 * the std::set members its users need (count, insert, erase, size,
 * ordered iteration), so code written against std::set<RegId> reads
 * the same, without a node allocation per member.
 *
 * The word vector grows on demand and trailing zero words carry no
 * meaning: two sets are equal when they hold the same ids, whatever
 * their word counts.
 */

#ifndef LBP_SUPPORT_DENSE_SET_HH
#define LBP_SUPPORT_DENSE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace lbp
{

template <typename Id>
class DenseIdSet
{
    using Word = std::uint64_t;
    static constexpr unsigned kBits = 64;

  public:
    DenseIdSet() = default;

    /** An empty set with room for ids below @p n without growing. */
    explicit DenseIdSet(std::size_t n) : words_((n + kBits - 1) / kBits)
    {
    }

    std::size_t count(Id id) const
    {
        const std::size_t w = id / kBits;
        return w < words_.size() && ((words_[w] >> (id % kBits)) & 1);
    }

    /** Add @p id; true when it was not already a member. */
    bool insert(Id id)
    {
        const std::size_t w = id / kBits;
        if (w >= words_.size())
            words_.resize(w + 1, 0);
        const Word bit = Word{1} << (id % kBits);
        const bool fresh = (words_[w] & bit) == 0;
        words_[w] |= bit;
        return fresh;
    }

    /** Remove @p id; the number of members removed (0 or 1). */
    std::size_t erase(Id id)
    {
        const std::size_t w = id / kBits;
        if (w >= words_.size())
            return 0;
        const Word bit = Word{1} << (id % kBits);
        const bool had = (words_[w] & bit) != 0;
        words_[w] &= ~bit;
        return had;
    }

    std::size_t size() const
    {
        std::size_t n = 0;
        for (Word w : words_)
            n += static_cast<std::size_t>(__builtin_popcountll(w));
        return n;
    }

    void clear() { std::fill(words_.begin(), words_.end(), Word{0}); }

    /** Add every member of @p o. */
    void insertAll(const DenseIdSet &o)
    {
        if (o.words_.size() > words_.size())
            words_.resize(o.words_.size(), 0);
        for (std::size_t i = 0; i < o.words_.size(); ++i)
            words_[i] |= o.words_[i];
    }

    /** Remove every member of @p o. */
    void eraseAll(const DenseIdSet &o)
    {
        const std::size_t n = std::min(words_.size(), o.words_.size());
        for (std::size_t i = 0; i < n; ++i)
            words_[i] &= ~o.words_[i];
    }

    friend bool operator==(const DenseIdSet &a, const DenseIdSet &b)
    {
        const auto &lo = a.words_.size() <= b.words_.size() ? a : b;
        const auto &hi = &lo == &a ? b : a;
        const std::size_t n = lo.words_.size();
        return std::equal(lo.words_.begin(), lo.words_.end(),
                          hi.words_.begin()) &&
               std::all_of(hi.words_.begin() + n, hi.words_.end(),
                           [](Word w) { return w == 0; });
    }

    /** Forward iterator over the members in ascending order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Id;
        using difference_type = std::ptrdiff_t;
        using pointer = const Id *;
        using reference = Id;

        const_iterator() = default;

        Id operator*() const
        {
            return static_cast<Id>(w_ * kBits +
                                   static_cast<unsigned>(
                                       __builtin_ctzll(rest_)));
        }

        const_iterator &operator++()
        {
            rest_ &= rest_ - 1;
            if (rest_ == 0)
                seek(w_ + 1);
            return *this;
        }

        const_iterator operator++(int)
        {
            const_iterator t = *this;
            ++*this;
            return t;
        }

        bool operator==(const const_iterator &o) const
        {
            return w_ == o.w_ && rest_ == o.rest_;
        }

      private:
        friend class DenseIdSet;

        const_iterator(const std::vector<Word> *words, std::size_t w)
            : words_(words)
        {
            seek(w);
        }

        /** Move to the first member in word @p w or later. */
        void seek(std::size_t w)
        {
            while (w < words_->size() && (*words_)[w] == 0)
                ++w;
            w_ = w;
            rest_ = w < words_->size() ? (*words_)[w] : 0;
        }

        const std::vector<Word> *words_ = nullptr;
        std::size_t w_ = 0;
        Word rest_ = 0;
    };

    const_iterator begin() const { return {&words_, 0}; }
    const_iterator end() const { return {&words_, words_.size()}; }

  private:
    std::vector<Word> words_;
};

} // namespace lbp

#endif // LBP_SUPPORT_DENSE_SET_HH
