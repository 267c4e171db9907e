//===- tests/ShapeTest.cpp - Shapes, transition tree and IC states --------===//
///
/// \file
/// The hidden-class substrate: transition-tree sharing (same add order
/// => same shape, different order => different shapes), lock-free
/// lookup semantics, JSObject add-vs-overwrite behavior, the inline
/// cache way/megamorphic state machine, and concurrent transition
/// churn (the TSan CI job runs this suite with two compile workers'
/// worth of reader threads against a mutating tree).
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "vm/GC.h"
#include "vm/Object.h"
#include "vm/Runtime.h"
#include "vm/Shape.h"
#include "vm/TypeFeedback.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace jitvs;

namespace {

TEST(ShapeTree, SameAddOrderSharesShapes) {
  ShapeTree T;
  const Shape *A = T.transition(T.transition(T.root(), 1), 2);
  const Shape *B = T.transition(T.transition(T.root(), 1), 2);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->numSlots(), 2u);
  EXPECT_EQ(A->lookup(1), 0);
  EXPECT_EQ(A->lookup(2), 1);
  EXPECT_EQ(A->lookup(3), -1);
}

TEST(ShapeTree, DifferentAddOrderDiverges) {
  ShapeTree T;
  const Shape *AB = T.transition(T.transition(T.root(), 1), 2);
  const Shape *BA = T.transition(T.transition(T.root(), 2), 1);
  EXPECT_NE(AB, BA);
  // Same key set, swapped slots.
  EXPECT_EQ(AB->lookup(1), 0);
  EXPECT_EQ(BA->lookup(1), 1);
  // Root + a + ab + b + ba.
  EXPECT_EQ(T.size(), 5u);
}

TEST(ShapeTree, ObjectsTransitionThroughSharedChain) {
  ShapeTree T;
  Heap H;
  JSObject *O1 = H.allocate<JSObject>(T.root());
  JSObject *O2 = H.allocate<JSObject>(T.root());
  O1->setProperty(T, 7, Value::int32(1));
  O2->setProperty(T, 7, Value::int32(2));
  EXPECT_EQ(O1->shape(), O2->shape());

  // Overwriting an existing property is in-place: no transition.
  const Shape *S = O1->shape();
  O1->setProperty(T, 7, Value::int32(9));
  EXPECT_EQ(O1->shape(), S);
  EXPECT_EQ(O1->getProperty(7).asInt32(), 9);

  // A second add diverges only for the object that takes it.
  O1->setProperty(T, 8, Value::int32(3));
  EXPECT_NE(O1->shape(), O2->shape());
  EXPECT_EQ(O1->shape()->parent(), O2->shape());
}

TEST(SiteFeedbackIC, MonoToPolyToMegamorphic) {
  ShapeTree T;
  const Shape *S1 = T.transition(T.root(), 1);
  const Shape *S2 = T.transition(T.root(), 2);
  const Shape *S3 = T.transition(T.root(), 3);

  SiteFeedback FB;
  EXPECT_EQ(FB.findWay(S1), nullptr);
  FB.addWay(S1, nullptr, 0, /*Limit=*/2);
  ASSERT_NE(FB.findWay(S1), nullptr);
  EXPECT_EQ(FB.NumWays, 1u);

  FB.addWay(S2, nullptr, 0, 2);
  EXPECT_EQ(FB.NumWays, 2u);
  EXPECT_FALSE(FB.Megamorphic);

  // A third shape exceeds the 2-way limit: the site retires for good.
  FB.addWay(S3, nullptr, 0, 2);
  EXPECT_TRUE(FB.Megamorphic);
  EXPECT_EQ(FB.findWay(S3), nullptr);
  FB.addWay(S3, nullptr, 0, 2);
  EXPECT_TRUE(FB.Megamorphic);
}

TEST(SiteFeedbackIC, RuntimeClampsWayLimit) {
  Runtime RT;
  RT.setICWays(99);
  EXPECT_EQ(RT.icWays(), SiteFeedback::MaxICWays);
  RT.setICWays(0);
  EXPECT_EQ(RT.icWays(), 1u);
}

// Concurrent transition churn: writers race to create overlapping
// transition chains while readers walk finished shapes lock-free, the
// pattern background compile workers see. Run under TSan in CI.
TEST(ShapeTree, ConcurrentTransitionChurn) {
  ShapeTree T;
  constexpr int Writers = 4, Props = 24;
  std::atomic<const Shape *> Published[Writers] = {};

  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      // All writers build the same chain 0..Props-1 plus one private
      // suffix, hammering the shared prefix transitions.
      const Shape *S = T.root();
      for (uint32_t P = 0; P < Props; ++P) {
        S = T.transition(S, P);
        Published[W].store(S, std::memory_order_release);
      }
      S = T.transition(S, 1000u + static_cast<uint32_t>(W));
      Published[W].store(S, std::memory_order_release);
    });
  // Reader: look up through whatever the writers have published so far.
  std::thread Reader([&] {
    for (int Round = 0; Round < 2000; ++Round)
      for (int W = 0; W < Writers; ++W)
        if (const Shape *S = Published[W].load(std::memory_order_acquire)) {
          int32_t Slot = S->lookup(0);
          ASSERT_TRUE(Slot == 0 || S->propId() == 0);
        }
  });
  for (std::thread &Th : Threads)
    Th.join();
  Reader.join();

  // The shared prefix must have been created exactly once: Props chain
  // shapes + one private suffix per writer + the root.
  EXPECT_EQ(T.size(), static_cast<size_t>(Props + Writers + 1));
  for (int W = 0; W < Writers; ++W) {
    const Shape *S = Published[W].load();
    EXPECT_EQ(S->numSlots(), static_cast<uint32_t>(Props + 1));
    EXPECT_EQ(S->lookup(1000u + static_cast<uint32_t>(W)),
              static_cast<int32_t>(Props));
  }
}

// End-to-end: the shape tier must be observably transparent. Property-
// heavy program with transitions after compilation (shape-guard
// bailouts) agrees between interpreter, JIT, and JIT with shapes off.
TEST(ShapeEndToEnd, ShapeGuardBailoutDespecializes) {
  const char *Source =
      "function get(o) { return o.x + o.y; }"
      "var a = {x: 1, y: 2};"
      "var t = 0;"
      "for (var i = 0; i < 200; i++) t = (t + get(a)) % 1000003;"
      "a.z = 5;" // Transitions the receiver under compiled code.
      "for (var j = 0; j < 200; j++) t = (t + get(a)) % 1000003;"
      "print(t, a.z);";

  std::string Expected;
  {
    Runtime RT;
    RT.evaluate(Source);
    ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
    Expected = RT.output();
  }
  for (bool ShapesOn : {true, false}) {
    Runtime RT;
    RT.setShapesEnabled(ShapesOn);
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.CallThreshold = 3;
    K.LoopThreshold = 30;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(Source);
    ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
    EXPECT_EQ(RT.output(), Expected) << "shapes=" << ShapesOn;
  }
}

} // namespace
