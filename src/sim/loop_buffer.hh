/**
 * @file
 * The loop buffer (paper §5): a small, compiler-managed,
 * addressable-memory-style instruction store. The compiler assigns
 * buffer offsets to loop images; the hardware keeps a residency table
 * mapping the address of each loop's REC operation to its buffered
 * image so that re-recording of an intact loop is skipped.
 */

#ifndef LBP_SIM_LOOP_BUFFER_HH
#define LBP_SIM_LOOP_BUFFER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ir/types.hh"

namespace lbp
{

/** Identity of one bufferable loop: its REC operation. */
struct LoopKey
{
    FuncId func = kNoFunc;
    OpId recOp = 0;

    bool operator<(const LoopKey &o) const
    {
        if (func != o.func)
            return func < o.func;
        return recOp < o.recOp;
    }
    bool operator==(const LoopKey &o) const
    { return func == o.func && recOp == o.recOp; }
};

/** Compiler-managed loop buffer with a hardware residency table. */
class LoopBuffer
{
  public:
    explicit LoopBuffer(int capacityOps);

    int capacity() const { return capacity_; }

    /** Is the loop recorded from @p key still intact? */
    bool isResident(const LoopKey &key) const;

    /**
     * Begin recording @p sizeOps operations at offset @p bufAddr for
     * loop @p key. Any overlapping resident image is invalidated
     * (including a previous image of the same key at another offset).
     * Requires 0 <= bufAddr and bufAddr + sizeOps <= capacity.
     * When @p evictedOut is non-null it is cleared and filled with
     * the keys of *other* loops displaced by this recording (the
     * per-loop eviction attribution both sim engines accumulate).
     */
    void record(const LoopKey &key, int bufAddr, int sizeOps,
                std::vector<LoopKey> *evictedOut = nullptr);

    /** Invalidate everything (e.g. context switch). */
    void clear();

    /** Number of currently resident loops. */
    int residentCount() const
    { return static_cast<int>(resident_.size()); }

    /** Statistics. */
    std::uint64_t recordings() const { return recordings_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t tableHits() const { return tableHits_; }
    void countTableHit() { ++tableHits_; }

    /** Same capacity, resident images and counters. */
    bool operator==(const LoopBuffer &o) const
    {
        return capacity_ == o.capacity_ && resident_ == o.resident_ &&
               recordings_ == o.recordings_ &&
               evictions_ == o.evictions_ && tableHits_ == o.tableHits_;
    }

  private:
    struct Image
    {
        int addr = 0;
        int size = 0;

        bool operator==(const Image &o) const
        { return addr == o.addr && size == o.size; }
    };

    int capacity_;
    std::map<LoopKey, Image> resident_;
    std::uint64_t recordings_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t tableHits_ = 0;
};

} // namespace lbp

#endif // LBP_SIM_LOOP_BUFFER_HH
