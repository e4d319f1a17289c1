// Epoch-based reclamation (util/epoch.h): the grace-period discipline
// the MVCC read path leans on. The contract under test:
//
//  - an object retired while a reader is pinned is NOT freed until that
//    reader releases (pinned-never-freed);
//  - an object retired with no active readers is freed within a bounded
//    number of grace periods (here: the very next ReclaimSome);
//  - pins taken AFTER a retirement do not extend the retired object's
//    grace period (they pinned a later epoch, so they can only have
//    loaded the replacement).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "util/epoch.h"

namespace ldapbound {
namespace {

// A deleter that flips a flag, so freeing is observable.
std::function<void()> FlagDeleter(std::shared_ptr<std::atomic<bool>> flag) {
  return [flag] { flag->store(true, std::memory_order_release); };
}

TEST(EpochTest, UnpinnedRetireesReclaimImmediately) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);
  epochs.Retire(FlagDeleter(freed));
  // Retire runs ReclaimSome itself; with no reader pinned the grace
  // period is already over.
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

TEST(EpochTest, PinnedObjectIsNeverFreed) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);

  EpochManager::Pin pin = epochs.Enter();
  epochs.Retire(FlagDeleter(freed));
  for (int i = 0; i < 10; ++i) {
    epochs.ReclaimSome();
    ASSERT_FALSE(freed->load()) << "freed under an active pin";
  }
  ASSERT_EQ(epochs.retired_pending(), 1u);

  pin.Release();
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

TEST(EpochTest, LaterPinsDoNotBlockEarlierRetirees) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);
  epochs.Retire(FlagDeleter(freed));

  // This pin observes the post-retirement epoch: it cannot hold a
  // pointer to the retired object, so reclamation must proceed.
  EpochManager::Pin pin = epochs.Enter();
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
}

TEST(EpochTest, NestedPinsReleaseOutsideIn) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);

  EpochManager::Pin outer = epochs.Enter();
  {
    EpochManager::Pin inner = epochs.Enter();
    epochs.Retire(FlagDeleter(freed));
    // inner releases here; the outer pin still guards the epoch.
  }
  epochs.ReclaimSome();
  EXPECT_FALSE(freed->load());

  outer.Release();
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
}

TEST(EpochTest, PinIsMovable) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);

  EpochManager::Pin pin = epochs.Enter();
  epochs.Retire(FlagDeleter(freed));
  EpochManager::Pin moved = std::move(pin);
  EXPECT_FALSE(pin.pinned());
  EXPECT_TRUE(moved.pinned());
  epochs.ReclaimSome();
  EXPECT_FALSE(freed->load());

  moved.Release();
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
}

TEST(EpochTest, ReadersOnOtherThreadsHoldTheGracePeriod) {
  EpochManager epochs;
  auto freed = std::make_shared<std::atomic<bool>>(false);

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochManager::Pin pin = epochs.Enter();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  epochs.Retire(FlagDeleter(freed));
  epochs.ReclaimSome();
  EXPECT_FALSE(freed->load());
  EXPECT_GE(epochs.live_readers(), 1u);

  release.store(true, std::memory_order_release);
  reader.join();
  epochs.ReclaimSome();
  EXPECT_TRUE(freed->load());
}

// Bounded-lag property: K publish rounds with transient readers never
// leave more than a couple of retirees pending — reclamation keeps up
// with retirement instead of deferring to destruction.
TEST(EpochTest, ReclamationKeepsUpAcrossRounds) {
  EpochManager epochs;
  std::atomic<int> alive{0};
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    EpochManager::Pin pin = epochs.Enter();
    ++alive;
    epochs.Retire([&alive] { --alive; });
    pin.Release();
    // At most the current round's retiree can still be pending: its
    // retirement happened while our pin was active, so it waits one
    // more Retire/ReclaimSome cycle.
    ASSERT_LE(epochs.retired_pending(), 2u) << "round " << i;
  }
  epochs.ReclaimSome();
  EXPECT_EQ(epochs.retired_pending(), 0u);
  EXPECT_EQ(alive.load(), 0);
}

// Many concurrent pin/unpin threads against one retiring writer: every
// deleter runs exactly once, and none runs while the epoch that could
// reference it is still pinned (TSan-checked via the shared counter).
TEST(EpochTest, ConcurrentPinRetireStress) {
  EpochManager epochs;
  constexpr int kReaders = 4;
  constexpr int kRetirees = 300;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochManager::Pin pin = epochs.Enter();
        std::this_thread::yield();
      }
    });
  }

  std::atomic<int> deleted{0};
  for (int i = 0; i < kRetirees; ++i) {
    epochs.Retire([&deleted] { ++deleted; });
    if (i % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  epochs.ReclaimSome();
  EXPECT_EQ(deleted.load(), kRetirees);
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

// live_readers() counts pinned slots when asked: with the readers still
// it is exact — one per thread however deeply it nests its pins — and it
// falls back to 0 once they release.
TEST(EpochTest, LiveReadersCountsPinnedThreadsExactly) {
  EpochManager epochs;
  constexpr int kReaders = 5;
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      EpochManager::Pin outer = epochs.Enter();
      EpochManager::Pin inner = epochs.Enter();
      EpochManager::Pin innermost = epochs.Enter();
      pinned.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (pinned.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  EXPECT_EQ(epochs.live_readers(), static_cast<size_t>(kReaders));
  {
    EpochManager::Pin mine = epochs.Enter();
    EpochManager::Pin nested = epochs.Enter();
    EXPECT_EQ(epochs.live_readers(), static_cast<size_t>(kReaders) + 1);
  }
  EXPECT_EQ(epochs.live_readers(), static_cast<size_t>(kReaders));

  release.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(epochs.live_readers(), 0u);
}

}  // namespace
}  // namespace ldapbound
