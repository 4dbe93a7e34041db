// Pins the compile-time purity contract of ClusterStateView: every accessor
// is deep-const, and no mutating operation of ClusterStateIndex or
// LocalStrideScheduler is reachable through the view. The checks are
// static_asserts (detection idiom) so a mutator leaking into the view breaks
// the BUILD of the test suite, not just a runtime expectation; the matching
// negative-compile proof (a .cc that tries the mutation and must fail) lives
// in tests/lint/const_view_must_not_compile.cc, wired as a WILL_FAIL ctest.
#include "sched/cluster_state_view.h"

#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "sched/cluster_state_index.h"

namespace gfair::sched {
namespace {

// --- detection idiom -------------------------------------------------------
// CanX<T>: is the mutating expression well-formed on a T obtained from the
// view? For the purity contract every one of these must be false.

template <typename T, typename = void>
struct CanAddJob : std::false_type {};
template <typename T>
struct CanAddJob<T, std::void_t<decltype(std::declval<T>().AddJob(
                        std::declval<JobId>(), 1, 1.0))>> : std::true_type {};

template <typename T, typename = void>
struct CanSetTickets : std::false_type {};
template <typename T>
struct CanSetTickets<T, std::void_t<decltype(std::declval<T>().SetTickets(
                            std::declval<JobId>(), 1.0))>> : std::true_type {};

template <typename T, typename = void>
struct CanSetRunnable : std::false_type {};
template <typename T>
struct CanSetRunnable<T, std::void_t<decltype(std::declval<T>().SetRunnable(
                             std::declval<JobId>(), true))>> : std::true_type {};

template <typename T, typename = void>
struct CanInvalidateTicketLoad : std::false_type {};
template <typename T>
struct CanInvalidateTicketLoad<
    T, std::void_t<decltype(std::declval<T>().InvalidateTicketLoad())>>
    : std::true_type {};

template <typename T, typename = void>
struct CanCharge : std::false_type {};
template <typename T>
struct CanCharge<T, std::void_t<decltype(std::declval<T>().Charge(
                        std::declval<JobId>(), SimDuration{1}))>>
    : std::true_type {};

// View-level mutators that must simply not exist on ClusterStateView.
template <typename T, typename = void>
struct HasSetDown : std::false_type {};
template <typename T>
struct HasSetDown<T, std::void_t<decltype(std::declval<T>().SetDown(
                         std::declval<ServerId>(), true))>> : std::true_type {};

template <typename T, typename = void>
struct HasInvalidateTicketLoad : std::false_type {};
template <typename T>
struct HasInvalidateTicketLoad<T, std::void_t<decltype(std::declval<T>().InvalidateTicketLoad(
                                      std::declval<ServerId>()))>> : std::true_type {};

template <typename T, typename = void>
struct HasClearPlanDirty : std::false_type {};
template <typename T>
struct HasClearPlanDirty<T, std::void_t<decltype(std::declval<T>().ClearPlanDirty(
                                std::declval<ServerId>()))>> : std::true_type {};

// What planning code actually receives from the view.
using StrideThroughView =
    decltype(std::declval<const ClusterStateView&>().stride(std::declval<ServerId>()));
using ServerThroughView =
    decltype(std::declval<const ClusterStateView&>().server(std::declval<ServerId>()));

// The view hands out only const references...
static_assert(std::is_same_v<StrideThroughView, const LocalStrideScheduler&>,
              "view must expose strides as const references");
static_assert(std::is_same_v<ServerThroughView, const cluster::Server&>,
              "view must expose servers as const references");

// ...through which no stride mutation is expressible (deep const, enforced by
// overload resolution: the mutators are non-const member functions).
static_assert(!CanAddJob<StrideThroughView>::value,
              "AddJob must not be callable through the view");
static_assert(!CanSetTickets<StrideThroughView>::value,
              "SetTickets must not be callable through the view");
static_assert(!CanSetRunnable<StrideThroughView>::value,
              "SetRunnable must not be callable through the view");
static_assert(!CanInvalidateTicketLoad<StrideThroughView>::value,
              "InvalidateTicketLoad must not be callable through the view");
static_assert(!CanCharge<StrideThroughView>::value,
              "Charge must not be callable through the view");

// Sanity: the same expressions ARE well-formed on a mutable scheduler —
// otherwise the negative asserts above would pass vacuously.
static_assert(CanAddJob<LocalStrideScheduler&>::value);
static_assert(CanSetTickets<LocalStrideScheduler&>::value);
static_assert(CanSetRunnable<LocalStrideScheduler&>::value);
static_assert(CanInvalidateTicketLoad<LocalStrideScheduler&>::value);
static_assert(CanCharge<LocalStrideScheduler&>::value);

// Index-level mutators do not exist on the view at all.
static_assert(!HasSetDown<const ClusterStateView&>::value,
              "the view must not expose SetDown");
static_assert(!HasClearPlanDirty<const ClusterStateView&>::value,
              "the view must not expose ClearPlanDirty");
static_assert(!HasInvalidateTicketLoad<const ClusterStateView&>::value,
              "the view must not expose InvalidateTicketLoad");
static_assert(HasSetDown<ClusterStateIndex&>::value);
static_assert(HasInvalidateTicketLoad<ClusterStateIndex&>::value);
static_assert(HasClearPlanDirty<ClusterStateIndex&>::value);

// The view is a value type: two pointers, trivially copyable, cheap to pass
// by value into every planning helper.
static_assert(std::is_trivially_copyable_v<ClusterStateView>);
static_assert(sizeof(ClusterStateView) <= 2 * sizeof(void*));

// Runtime smoke: the view reads the same state the index holds.
TEST(ClusterStateViewTest, ReadsMatchIndex) {
  cluster::Cluster cluster(cluster::HomogeneousTopology(2, 4));
  const ServerId s0(0);
  const ServerId s1(1);
  ClusterStateIndex index(cluster, StrideConfig{});
  const TicketRate rate{10.0, 2.0};  // share 2 of demand 2: 10 tickets
  index.AddJob(s0, JobId(0), /*gang=*/2, /*share=*/2.0, &rate);

  const ClusterStateView view(cluster, index);
  EXPECT_EQ(view.num_servers(), index.num_servers());
  EXPECT_EQ(view.stride(s0).num_jobs(), 1u);
  EXPECT_EQ(view.stride(s1).num_jobs(), 0u);
  EXPECT_TRUE(view.plan_dirty(s0));
  EXPECT_FALSE(view.down(s0));
  EXPECT_FALSE(view.draining(s1));
  EXPECT_DOUBLE_EQ(view.NormTicketLoad(s0), index.NormTicketLoad(s0));
  EXPECT_EQ(&view.server(s0), &cluster.server(s0));
  EXPECT_EQ(&view.stride(s0), &index.stride(s0));
}

}  // namespace
}  // namespace gfair::sched
