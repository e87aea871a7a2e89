//===- graph/Generators.cpp -----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"

#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <numeric>

using namespace gprof;

CallGraph gprof::makeRandomDag(uint32_t NumNodes, uint32_t NumArcs,
                               uint64_t MaxCount, uint64_t Seed) {
  assert(NumNodes >= 2 && "a DAG with arcs needs at least two nodes");
  SplitMix64 Rng(Seed);

  // Shuffle a topological order so node ids do not encode it.
  std::vector<uint32_t> Order(NumNodes);
  std::iota(Order.begin(), Order.end(), 0);
  for (uint32_t I = NumNodes - 1; I > 0; --I)
    std::swap(Order[I], Order[Rng.nextBelow(I + 1)]);

  std::vector<std::string> Names;
  for (uint32_t N = 0; N != NumNodes; ++N)
    Names.push_back(format("f%u", N));
  std::vector<Arc> Arcs;
  for (uint32_t A = 0; A != NumArcs; ++A) {
    uint32_t I = static_cast<uint32_t>(Rng.nextBelow(NumNodes - 1));
    uint32_t J =
        static_cast<uint32_t>(Rng.nextInRange(I + 1, NumNodes - 1));
    Arcs.push_back({Order[I], Order[J], Rng.nextInRange(1, MaxCount)});
  }
  return CallGraph(std::move(Names), std::move(Arcs));
}

CallGraph gprof::makeRandomGraph(uint32_t NumNodes, uint32_t NumArcs,
                                 uint64_t MaxCount, double SelfArcProb,
                                 uint64_t Seed) {
  assert(NumNodes >= 1 && "graph needs nodes");
  SplitMix64 Rng(Seed);
  std::vector<std::string> Names;
  for (uint32_t N = 0; N != NumNodes; ++N)
    Names.push_back(format("f%u", N));
  std::vector<Arc> Arcs;
  for (uint32_t A = 0; A != NumArcs; ++A) {
    uint32_t From = static_cast<uint32_t>(Rng.nextBelow(NumNodes));
    uint32_t To = Rng.nextBool(SelfArcProb)
                      ? From
                      : static_cast<uint32_t>(Rng.nextBelow(NumNodes));
    Arcs.push_back({From, To, Rng.nextInRange(1, MaxCount)});
  }
  return CallGraph(std::move(Names), std::move(Arcs));
}

CallGraph gprof::makeKernelLikeGraph(uint32_t NumSubsystems,
                                     uint32_t SubsystemSize,
                                     uint32_t BackArcs, uint64_t Seed) {
  assert(NumSubsystems >= 1 && SubsystemSize >= 2 && "degenerate kernel");
  SplitMix64 Rng(Seed);
  std::vector<std::string> Names;
  for (uint32_t S = 0; S != NumSubsystems; ++S)
    for (uint32_t R = 0; R != SubsystemSize; ++R)
      Names.push_back(format("sub%u_fn%u", S, R));
  std::vector<Arc> Arcs;

  auto NodeOf = [&](uint32_t S, uint32_t R) { return S * SubsystemSize + R; };

  // Heavy, layered intra-subsystem traffic (acyclic within a subsystem).
  for (uint32_t S = 0; S != NumSubsystems; ++S)
    for (uint32_t R = 0; R + 1 != SubsystemSize; ++R) {
      uint32_t Fanout = static_cast<uint32_t>(Rng.nextInRange(1, 3));
      for (uint32_t F = 0; F != Fanout; ++F) {
        uint32_t To =
            static_cast<uint32_t>(Rng.nextInRange(R + 1, SubsystemSize - 1));
        Arcs.push_back(
            {NodeOf(S, R), NodeOf(S, To), Rng.nextInRange(1000, 100000)});
      }
    }

  // Heavy forward arcs between consecutive subsystems (entry points).
  for (uint32_t S = 0; S + 1 != NumSubsystems; ++S)
    Arcs.push_back({NodeOf(S, SubsystemSize - 1), NodeOf(S + 1, 0),
                    Rng.nextInRange(1000, 100000)});

  // A few low-count back arcs close one large cycle across subsystems, as
  // in the kernel profiles the retrospective describes.
  for (uint32_t B = 0; B != BackArcs; ++B) {
    uint32_t FromS =
        static_cast<uint32_t>(Rng.nextBelow(NumSubsystems));
    uint32_t ToS = FromS == 0 ? 0 : static_cast<uint32_t>(Rng.nextBelow(FromS + 1));
    uint32_t From = NodeOf(
        FromS, static_cast<uint32_t>(Rng.nextBelow(SubsystemSize)));
    uint32_t To =
        NodeOf(ToS, static_cast<uint32_t>(Rng.nextBelow(SubsystemSize)));
    if (From == To)
      To = NodeOf(ToS, 0) == From ? NodeOf(ToS, 1) : NodeOf(ToS, 0);
    Arcs.push_back({From, To, Rng.nextInRange(1, 5)});
  }
  return CallGraph(std::move(Names), std::move(Arcs));
}

CallGraph gprof::makeLayeredGraph(uint32_t Layers, uint32_t Width,
                                  uint32_t MaxFanout, uint64_t Seed) {
  assert(Layers >= 1 && Width >= 1 && MaxFanout >= 1 && "degenerate layout");
  SplitMix64 Rng(Seed);
  std::vector<std::string> Names{"main"};
  const NodeId Main = 0;
  std::vector<std::vector<NodeId>> Layer(Layers);
  for (uint32_t L = 0; L != Layers; ++L)
    for (uint32_t W = 0; W != Width; ++W) {
      Layer[L].push_back(static_cast<NodeId>(Names.size()));
      Names.push_back(format("l%u_fn%u", L, W));
    }

  std::vector<Arc> Arcs;
  for (NodeId N : Layer[0])
    Arcs.push_back({Main, N, Rng.nextInRange(1, 100)});
  for (uint32_t L = 0; L + 1 != Layers; ++L)
    for (NodeId From : Layer[L]) {
      uint32_t Fanout = static_cast<uint32_t>(Rng.nextInRange(1, MaxFanout));
      for (uint32_t F = 0; F != Fanout; ++F) {
        NodeId To = Layer[L + 1][Rng.nextBelow(Width)];
        Arcs.push_back({From, To, Rng.nextInRange(1, 10000)});
      }
    }
  return CallGraph(std::move(Names), std::move(Arcs));
}
