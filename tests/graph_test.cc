#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "common/random.h"
#include "component_oracle.h"
#include "cycle_oracle.h"
#include "graph/cycles_through.h"
#include "graph/digraph.h"
#include "graph/undirected.h"

namespace pardb::graph {
namespace {

TEST(DigraphTest, AddVertices) {
  Digraph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);  // idempotent
  EXPECT_EQ(g.VertexCount(), 2u);
  EXPECT_TRUE(g.HasVertex(1));
  EXPECT_FALSE(g.HasVertex(3));
}

TEST(DigraphTest, EdgesWithLabels) {
  Digraph g;
  g.AddEdge(1, 2, 100);
  g.AddEdge(1, 2, 101);  // parallel with a different label
  g.AddEdge(1, 2, 100);  // duplicate ignored
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 2, 100));
  EXPECT_FALSE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 2, 102));
}

TEST(DigraphTest, DegreesAndNeighbors) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(1, 3, 1);
  g.AddEdge(4, 1, 2);
  g.AddEdge(1, 3, 0);  // parallel label
  EXPECT_EQ(g.OutDegree(1), 3u);
  EXPECT_EQ(g.InDegree(1), 1u);
  auto out = g.OutArcs(1);
  EXPECT_EQ(std::vector<Arc>(out.begin(), out.end()),
            (std::vector<Arc>{{2, 0}, {3, 0}, {3, 1}}));
  auto in = g.InArcs(1);
  EXPECT_EQ(std::vector<Arc>(in.begin(), in.end()), (std::vector<Arc>{{4, 2}}));
  EXPECT_TRUE(g.OutArcs(99).empty());
}

TEST(DigraphTest, HasPath) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  g.AddEdge(3, 4, 0);
  EXPECT_TRUE(g.HasPath(1, 4));
  EXPECT_TRUE(g.HasPath(2, 2));
  EXPECT_FALSE(g.HasPath(4, 1));
  EXPECT_FALSE(g.HasPath(1, 99));
}

TEST(DigraphTest, WouldCreateCycle) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  EXPECT_TRUE(g.WouldCreateCycle(3, 1));   // 1->2->3 then 3->1 closes
  EXPECT_FALSE(g.WouldCreateCycle(1, 3));  // parallel path, no cycle
}

TEST(DigraphTest, FindCycleThrough) {
  Digraph g;
  g.AddEdge(1, 2, 10);
  g.AddEdge(2, 3, 11);
  g.AddEdge(3, 1, 12);
  g.AddEdge(3, 4, 13);  // dangling tail
  auto cycle = g.FindCycleThrough(1);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->vertices.size(), 3u);
  EXPECT_TRUE(cycle->Contains(1));
  EXPECT_TRUE(cycle->Contains(2));
  EXPECT_TRUE(cycle->Contains(3));
  EXPECT_FALSE(cycle->Contains(4));
  EXPECT_EQ(cycle->edges.size(), 3u);
  EXPECT_FALSE(g.FindCycleThrough(4).has_value());
}

TEST(DigraphTest, EnumerateMultipleCyclesThroughVertex) {
  // Two cycles through 1: 1->2->1 and 1->2->3->1 (the paper's Figure 3(b)
  // shape).
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  g.AddEdge(2, 3, 2);
  g.AddEdge(3, 1, 3);
  std::vector<Cycle> cycles;
  std::size_t n = EnumerateCyclesThrough(g, 1, 10, [&](const Cycle& c) {
    cycles.push_back(c);
    return true;
  });
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(cycles.size(), 2u);
  std::vector<std::size_t> sizes{cycles[0].vertices.size(),
                                 cycles[1].vertices.size()};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 3}));
}

TEST(DigraphTest, EnumerateHonorsLimit) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  g.AddEdge(2, 3, 2);
  g.AddEdge(3, 1, 3);
  std::size_t n = EnumerateCyclesThrough(g, 1, 1, [](const Cycle&) {
    return true;
  });
  EXPECT_EQ(n, 1u);
}

TEST(DigraphTest, IsAcyclic) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  EXPECT_TRUE(g.IsAcyclic());
  g.AddEdge(3, 1, 0);
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(DigraphTest, ForestProperty) {
  // Theorem 1: X-only deadlock-free graphs are forests of out-trees.
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(1, 3, 1);  // branching out is fine
  g.AddEdge(3, 4, 2);
  EXPECT_TRUE(g.IsForest());
  g.AddEdge(5, 4, 3);  // 4 now has two predecessors: not a forest
  EXPECT_FALSE(g.IsForest());
}

TEST(DigraphTest, CycleBreaksForest) {
  Digraph g;
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 1, 1);
  EXPECT_FALSE(g.IsForest());
}

TEST(DigraphTest, ToDotMentionsEdges) {
  Digraph g;
  g.AddEdge(1, 2, 5);
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("\"v1\" -> \"v2\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"5\""), std::string::npos);
}

TEST(DigraphTest, CyclicComponents) {
  Digraph g;
  // Two cycles {1,2,3} and {5,6}, plus acyclic vertices 4 and 7 and a
  // self-loop on 8.
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 3, 0);
  g.AddEdge(3, 1, 0);
  g.AddEdge(3, 4, 0);
  g.AddEdge(5, 6, 0);
  g.AddEdge(6, 5, 0);
  g.AddVertex(7);
  g.AddEdge(8, 8, 0);
  auto cyclic = g.CyclicComponents();
  ASSERT_EQ(cyclic.size(), 3u);
  EXPECT_EQ(cyclic[0], (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(cyclic[1], (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(cyclic[2], (std::vector<VertexId>{8}));
}

// Cyclic components and acyclicity against mutual reachability (HasPath)
// and the enumeration oracle on random graphs, self-loops included.
TEST(DigraphTest, CyclicComponentsMatchMutualReachability) {
  pardb::Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    Digraph g;
    const std::size_t n = 2 + rng.Uniform(8);
    for (std::size_t v = 0; v < n; ++v) g.AddVertex(v);
    const std::size_t edges = rng.Uniform(2 * n);
    for (std::size_t e = 0; e < edges; ++e) {
      g.AddEdge(rng.Uniform(n), rng.Uniform(n), e);
    }
    std::vector<std::vector<VertexId>> expected;
    std::set<VertexId> placed;
    bool acyclic = true;
    for (VertexId v = 0; v < n; ++v) {
      acyclic &= AllCyclesThrough(g, v).empty();
      if (placed.count(v)) continue;
      std::vector<VertexId> component;
      for (VertexId u = 0; u < n; ++u) {
        if (g.HasPath(v, u) && g.HasPath(u, v)) component.push_back(u);
      }
      placed.insert(component.begin(), component.end());
      if (component.size() >= 2 || g.HasEdge(v, v)) {
        expected.push_back(component);
      }
    }
    EXPECT_EQ(g.CyclicComponents(), expected) << trial;
    EXPECT_EQ(g.IsAcyclic(), acyclic) << trial;
    EXPECT_EQ(expected.empty(), acyclic) << trial;
  }
}

// Cross-check the enumeration oracle against brute-force permutation
// search on small random graphs.
TEST(DigraphTest, EnumerationMatchesBruteForce) {
  pardb::Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    Digraph g;
    const std::size_t n = 3 + rng.Uniform(4);  // 3..6 vertices
    for (std::size_t v = 0; v < n; ++v) g.AddVertex(v);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b && rng.Bernoulli(0.3)) g.AddEdge(a, b, a * n + b);
      }
    }
    const VertexId root = 0;
    // Brute force: all simple vertex sequences starting at root that close
    // a cycle, canonicalised as sorted vertex sets with order.
    std::set<std::vector<VertexId>> expected;
    std::vector<VertexId> path{root};
    std::set<VertexId> used{root};
    std::function<void()> Dfs = [&]() {
      VertexId last = path.back();
      for (VertexId next = 0; next < n; ++next) {
        if (!g.HasEdge(last, next)) continue;
        if (next == root) expected.insert(path);
        if (used.count(next)) continue;
        used.insert(next);
        path.push_back(next);
        Dfs();
        path.pop_back();
        used.erase(next);
      }
    };
    Dfs();
    std::set<std::vector<VertexId>> found;
    EnumerateCyclesThrough(g, root, 100000, [&](const Cycle& c) {
      found.insert(c.vertices);
      return true;
    });
    EXPECT_EQ(found, expected) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// CyclesThrough: the requester's component against the enumeration oracle
// ---------------------------------------------------------------------------

constexpr std::uint64_t kInf = CyclesThrough::kInfinite;

// g's in-arc source for CyclesThrough::Load.
auto InArcsOf(const Digraph& g) {
  return [&g](VertexId v) { return g.InArcs(v); };
}

// Member index of v in a loaded component.
std::size_t LocalIndex(const CyclesThrough& ct, VertexId v) {
  for (std::size_t i = 0; i < ct.size(); ++i) {
    if (ct.member(i) == v) return i;
  }
  return ct.size();
}

// g minus the `drop` vertices (Digraph is move-only).
Digraph Without(const Digraph& g, const std::vector<VertexId>& drop) {
  auto Dropped = [&drop](VertexId v) {
    return std::find(drop.begin(), drop.end(), v) != drop.end();
  };
  Digraph rest;
  for (VertexId v : g.Vertices()) {
    if (!Dropped(v)) rest.AddVertex(v);
  }
  for (const Edge& e : g.Edges()) {
    if (!Dropped(e.from) && !Dropped(e.to)) rest.AddEdge(e.from, e.to, e.label);
  }
  return rest;
}

// Cheapest set of non-root members meeting every cycle, by trying every
// subset; kInf when only uncuttable members block some cycle.
std::uint64_t BruteForceHittingSet(const CyclesThrough& ct,
                                   const std::vector<Cycle>& cycles,
                                   const std::vector<std::uint64_t>& cap) {
  std::vector<std::uint32_t> cycle_masks;
  for (const Cycle& c : cycles) {
    std::uint32_t mask = 0;
    for (VertexId v : c.vertices) {
      const std::size_t i = LocalIndex(ct, v);
      if (i != ct.root_index()) mask |= 1u << i;
    }
    cycle_masks.push_back(mask);
  }
  std::uint64_t best = kInf;
  for (std::uint32_t set = 0; set < (1u << ct.size()); ++set) {
    if (set & (1u << ct.root_index())) continue;
    std::uint64_t cost = 0;
    for (std::size_t i = 0; i < ct.size() && cost != kInf; ++i) {
      if (set & (1u << i)) cost = cap[i] == kInf ? kInf : cost + cap[i];
    }
    if (cost >= best) continue;
    bool hits_all = true;
    for (std::uint32_t mask : cycle_masks) hits_all &= (mask & set) != 0;
    if (hits_all) best = cost;
  }
  return best;
}

// Checks one instance against the oracle: component arcs, cycle count,
// first cycle, cut optimality and that removing the cut leaves no cycle
// through the root. Returns the cut (empty when infinite).
std::vector<VertexId> CheckAgainstOracle(
    const Digraph& g, VertexId root,
    const std::function<std::uint64_t(VertexId)>& price) {
  const std::vector<Cycle> cycles = AllCyclesThrough(g, root);
  CyclesThrough ct;
  EXPECT_EQ(ct.Load(root, InArcsOf(g)), !cycles.empty());
  if (cycles.empty()) return {};

  std::set<Edge> on_cycles;
  for (const Cycle& c : cycles) on_cycles.insert(c.edges.begin(), c.edges.end());
  std::set<Edge> in_component;
  for (std::size_t i = 0; i < ct.size(); ++i) {
    for (const auto& arc : ct.OutArcs(i)) {
      in_component.insert(Edge{ct.member(i), ct.member(arc.head), arc.label});
    }
  }
  EXPECT_EQ(in_component, on_cycles);
  EXPECT_EQ(ct.arc_count(), in_component.size());
  EXPECT_EQ(ct.CountCycles(), cycles.size());
  EXPECT_EQ(ct.arc_count() == ct.size(), cycles.size() == 1);

  Cycle first;
  EXPECT_TRUE(ct.FirstCycle(&first));
  EXPECT_EQ(first.vertices, cycles.front().vertices);
  EXPECT_EQ(first.edges, cycles.front().edges);
  // With one member excluded: the first enumerated cycle avoiding it.
  for (std::size_t x = 0; x < ct.size(); ++x) {
    if (x == ct.root_index()) continue;
    std::vector<char> excluded(ct.size(), 0);
    excluded[x] = 1;
    auto avoiding = std::find_if(cycles.begin(), cycles.end(),
                                 [&](const Cycle& c) {
                                   return !c.Contains(ct.member(x));
                                 });
    Cycle next;
    EXPECT_EQ(ct.FirstCycle(&next, &excluded), avoiding != cycles.end());
    if (avoiding != cycles.end()) {
      EXPECT_EQ(next.edges, avoiding->edges);
    }
  }

  std::vector<std::uint64_t> cap;
  for (std::size_t i = 0; i < ct.size(); ++i) cap.push_back(price(ct.member(i)));
  std::vector<std::size_t> cut;
  const std::uint64_t flow = ct.MinVertexCut(cap, &cut);
  EXPECT_EQ(flow, BruteForceHittingSet(ct, cycles, cap));
  if (flow == kInf) {
    EXPECT_TRUE(cut.empty());
    return {};
  }
  std::uint64_t paid = 0;
  std::vector<VertexId> victims;
  for (std::size_t i : cut) {
    EXPECT_NE(i, ct.root_index());
    paid += cap[i];
    victims.push_back(ct.member(i));
  }
  EXPECT_EQ(paid, flow);
  const Digraph rest = Without(g, victims);
  EXPECT_TRUE(AllCyclesThrough(rest, root).empty());
  EXPECT_FALSE(ct.Load(root, InArcsOf(rest)));
  return victims;
}

// A DAG plus a requester: arcs between the other vertices only run forward
// in a random order, so — as under continuous detection — every cycle
// passes through the requester. Vertex ids are shuffled so the requester
// is not always the smallest.
TEST(CyclesThroughTest, MatchesEnumerationOracleOnRandomDagPlusRequester) {
  pardb::Rng rng(1981);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.Uniform(11);  // 2..12 vertices
    std::vector<VertexId> id(n);
    for (std::size_t i = 0; i < n; ++i) id[i] = i;
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(id[i], id[rng.Uniform(i + 1)]);
    }
    const VertexId root = id[0];
    Digraph g;
    EdgeLabel label = 0;
    const double density = 0.15 + 0.3 * rng.NextDouble();
    for (std::size_t a = 1; a < n; ++a) {
      if (rng.Bernoulli(0.4)) g.AddEdge(root, id[a], label++);
      if (rng.Bernoulli(0.4)) g.AddEdge(id[a], root, label++);
      for (std::size_t b = a + 1; b < n; ++b) {
        if (!rng.Bernoulli(density)) continue;
        g.AddEdge(id[a], id[b], label++);
        if (rng.Bernoulli(0.1)) g.AddEdge(id[a], id[b], label++);  // parallel
      }
    }
    std::vector<std::uint64_t> prices(n);
    for (std::uint64_t& p : prices) {
      p = rng.Bernoulli(0.2) ? kInf : rng.Uniform(10);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    CheckAgainstOracle(g, root, [&prices](VertexId v) { return prices[v]; });
  }
}

// Root 0 on every cycle; each listed member set becomes the ascending chain
// 0 -> m1 -> ... -> mk -> 0.
Digraph ChainsThroughRoot(const std::vector<std::vector<VertexId>>& chains) {
  Digraph g;
  EdgeLabel label = 0;
  for (const auto& chain : chains) {
    VertexId prev = 0;
    for (VertexId m : chain) {
      if (!g.HasEdge(prev, m)) g.AddEdge(prev, m, label++);
      prev = m;
    }
    if (!g.HasEdge(prev, 0)) g.AddEdge(prev, 0, label++);
  }
  return g;
}

TEST(CyclesThroughTest, FixedCutInstances) {
  struct Case {
    const char* name;
    std::vector<std::vector<VertexId>> chains;
    std::vector<std::uint64_t> prices;  // by vertex id; [0] is the root
    std::uint64_t cost;
    std::vector<VertexId> cut;  // empty: any optimal cut
  };
  const std::vector<Case> cases = {
      {"single cycle, cheapest member", {{1, 2, 3}}, {0, 5, 3, 9}, 3, {2}},
      {"two cheap leaves beat the shared member", {{1, 2}, {1, 3}},
       {0, 5, 2, 2}, 4, {2, 3}},
      {"shared member beats two leaves", {{1, 2}, {1, 3}}, {0, 3, 2, 2}, 3,
       {1}},
      {"overlapping chain of cycles", {{1, 2}, {2, 3}, {3, 4}},
       {0, 1, 1, 1, 1}, 2, {}},
      {"greedy trap: two singles beat the hub", {{1, 3}, {2, 3}},
       {0, 1, 1, 3}, 2, {1, 2}},
      {"ties go to the holders the root waits on", {{1, 2}}, {0, 1, 1}, 1,
       {2}},
      {"uncuttable path", {{1, 2}, {3}}, {0, 1, 1, kInf}, kInf, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Digraph g = ChainsThroughRoot(c.chains);
    const std::vector<VertexId> cut = CheckAgainstOracle(
        g, 0, [&c](VertexId v) { return c.prices[v]; });
    CyclesThrough ct;
    ASSERT_TRUE(ct.Load(0, InArcsOf(g)));
    std::vector<std::uint64_t> cap;
    for (std::size_t i = 0; i < ct.size(); ++i) {
      cap.push_back(c.prices[ct.member(i)]);
    }
    std::vector<std::size_t> unused;
    EXPECT_EQ(ct.MinVertexCut(cap, &unused), c.cost);
    if (!c.cut.empty()) {
      EXPECT_EQ(cut, c.cut);
    }
  }
}

TEST(CyclesThroughTest, NoCycleThroughRootLoadsNothing) {
  Digraph g;
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 1, 2);  // a cycle, but not through 0
  CyclesThrough ct;
  EXPECT_FALSE(ct.Load(0, InArcsOf(g)));
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_FALSE(ct.Load(7, InArcsOf(g)));  // absent vertex
  Cycle c;
  EXPECT_FALSE(ct.FirstCycle(&c));
  EXPECT_TRUE(ct.Load(1, InArcsOf(g)));
  EXPECT_EQ(ct.size(), 2u);
}

TEST(CyclesThroughTest, ParallelArcsCountAsSeparateCycles) {
  Digraph g;
  g.AddEdge(0, 1, 10);
  g.AddEdge(0, 1, 11);
  g.AddEdge(1, 0, 12);
  CyclesThrough ct;
  ASSERT_TRUE(ct.Load(0, InArcsOf(g)));
  EXPECT_EQ(ct.size(), 2u);
  EXPECT_EQ(ct.arc_count(), 3u);
  EXPECT_EQ(ct.CountCycles(), 2u);
  EXPECT_EQ(ct.CountCycles(), AllCyclesThrough(g, 0).size());
}

// A cyclic G − root (as in a periodic scan): the component still holds
// every cycle through the root and the cut still breaks them all; the
// count is only a lower bound.
TEST(CyclesThroughTest, CyclicRemainderStillCutsEveryCycleThroughRoot) {
  Digraph g;
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 1, 2);  // cycle avoiding the root
  g.AddEdge(2, 0, 3);
  g.AddEdge(1, 0, 4);
  CyclesThrough ct;
  ASSERT_TRUE(ct.Load(0, InArcsOf(g)));
  EXPECT_LE(ct.CountCycles(), AllCyclesThrough(g, 0).size());
  Cycle first;
  ASSERT_TRUE(ct.FirstCycle(&first));
  EXPECT_EQ(first.vertices, AllCyclesThrough(g, 0).front().vertices);
  std::vector<std::size_t> cut;
  EXPECT_EQ(ct.MinVertexCut({1, 1, 1}, &cut), 1u);
  std::vector<VertexId> victims;
  for (std::size_t i : cut) victims.push_back(ct.member(i));
  EXPECT_TRUE(AllCyclesThrough(Without(g, victims), 0).empty());
}

TEST(CyclesThroughTest, FindCycleThroughReturnsASimpleCycleOnAnyGraph) {
  pardb::Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    Digraph g;
    const std::size_t n = 2 + rng.Uniform(7);
    for (std::size_t e = 0; e < 2 * n; ++e) {
      g.AddEdge(rng.Uniform(n), rng.Uniform(n), e);
    }
    const auto found = g.FindCycleThrough(0);
    ASSERT_EQ(found.has_value(), !AllCyclesThrough(g, 0).empty()) << trial;
    if (!found.has_value()) continue;
    // On a cyclic remainder the walk may return another cycle than the
    // enumeration's first; it is always a simple cycle through 0.
    const std::vector<VertexId>& vs = found->vertices;
    EXPECT_EQ(vs.front(), 0u);
    EXPECT_EQ(std::set<VertexId>(vs.begin(), vs.end()).size(), vs.size());
    ASSERT_EQ(found->edges.size(), vs.size());
    for (std::size_t i = 0; i < vs.size(); ++i) {
      const Edge& e = found->edges[i];
      EXPECT_EQ(e.from, vs[i]);
      EXPECT_EQ(e.to, vs[(i + 1) % vs.size()]);
      EXPECT_TRUE(g.HasEdge(e.from, e.to, e.label));
    }
  }
}

// An in-arc source kept apart from any Digraph, the way the engine reads
// its lock table: each vertex's arcs in an arbitrary (shuffled) order.
// Loading from it must give the component the Digraph's sorted InArcs give,
// on any graph and from any root.
TEST(CyclesThroughTest, InArcSourceMatchesDigraphLoad) {
  pardb::Rng rng(27);
  for (int trial = 0; trial < 200; ++trial) {
    Digraph g;
    const std::size_t n = 2 + rng.Uniform(9);
    const std::size_t m = n + rng.Uniform(3 * n);
    for (std::size_t e = 0; e < m; ++e) {
      g.AddEdge(rng.Uniform(n), rng.Uniform(n), rng.Uniform(3));
    }
    std::map<VertexId, std::vector<Arc>> in;
    for (const Edge& e : g.Edges()) in[e.to].push_back(Arc{e.from, e.label});
    for (auto& [v, arcs] : in) {
      for (std::size_t i = arcs.size(); i > 1; --i) {
        std::swap(arcs[i - 1], arcs[rng.Uniform(i)]);
      }
    }
    auto source = [&in](VertexId v) {
      auto it = in.find(v);
      return it == in.end() ? std::span<const Arc>()
                            : std::span<const Arc>(it->second);
    };
    for (VertexId root = 0; root <= n; ++root) {  // n is absent
      SCOPED_TRACE("trial " + std::to_string(trial) + " root " +
                   std::to_string(root));
      CyclesThrough want;
      CyclesThrough got;
      const bool closed = want.Load(root, InArcsOf(g));
      ASSERT_EQ(got.Load(root, source), closed);
      ASSERT_EQ(got.size(), want.size());
      if (!closed) continue;
      EXPECT_EQ(got.root_index(), want.root_index());
      EXPECT_EQ(got.arc_count(), want.arc_count());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.member(i), want.member(i));
        const auto w = want.OutArcs(i);
        const auto a = got.OutArcs(i);
        ASSERT_EQ(a.size(), w.size());
        for (std::size_t j = 0; j < w.size(); ++j) {
          EXPECT_EQ(a[j].head, w[j].head);
          EXPECT_EQ(a[j].label, w[j].label);
        }
      }
      EXPECT_EQ(got.CountCycles(), want.CountCycles());
      Cycle cw, cg;
      EXPECT_EQ(got.FirstCycle(&cg), want.FirstCycle(&cw));
      EXPECT_EQ(cg.vertices, cw.vertices);
      EXPECT_EQ(cg.edges, cw.edges);
      std::vector<std::uint64_t> cap;
      for (std::size_t i = 0; i < want.size(); ++i) {
        cap.push_back(rng.Bernoulli(0.2) ? kInf : rng.Uniform(10));
      }
      std::vector<std::size_t> cut_w, cut_g;
      EXPECT_EQ(got.MinVertexCut(cap, &cut_g), want.MinVertexCut(cap, &cut_w));
      EXPECT_EQ(cut_g, cut_w);
    }
  }
}

// ---------------------------------------------------------------------------
// CyclesThrough::Load against the sorted-search loader it replaced
// ---------------------------------------------------------------------------

// g's in-arcs per vertex in a shuffled order, as the lock table gives them.
std::map<VertexId, std::vector<Arc>> ShuffledInArcs(const Digraph& g,
                                                    pardb::Rng& rng) {
  std::map<VertexId, std::vector<Arc>> in;
  for (const Edge& e : g.Edges()) in[e.to].push_back(Arc{e.from, e.label});
  for (auto& [v, arcs] : in) {
    for (std::size_t i = arcs.size(); i > 1; --i) {
      std::swap(arcs[i - 1], arcs[rng.Uniform(i)]);
    }
  }
  return in;
}

// n distinct vertex ids in random order: consecutive small ids (as the
// engine's transaction ids are) or ids spread over 64 bits.
std::vector<VertexId> RandomIds(pardb::Rng& rng, std::size_t n) {
  const bool spread = rng.Bernoulli(0.5);
  std::vector<VertexId> id(n);
  for (std::size_t i = 0; i < n; ++i) {
    id[i] = spread ? (rng.Next() << 16) | i : 1000 + i;
  }
  for (std::size_t i = n - 1; i > 0; --i) std::swap(id[i], id[rng.Uniform(i + 1)]);
  return id;
}

// Loads root's component into `ct` (reused across calls, as the engine
// reuses its instance) from a shuffled in-arc source and checks it against
// the sorted-search oracle: the same members in ascending order, root
// index and out-arcs in sorted (head, label) order. Returns the oracle's
// component (empty when root is on no cycle).
OracleComponent CheckComponentMatchesOracle(CyclesThrough& ct,
                                            const Digraph& g, VertexId root,
                                            pardb::Rng& rng) {
  const auto in = ShuffledInArcs(g, rng);
  auto source = [&in](VertexId v) {
    auto it = in.find(v);
    return it == in.end() ? std::span<const Arc>()
                          : std::span<const Arc>(it->second);
  };
  OracleComponent want;
  const bool closed = LoadComponentOracle(root, InArcsOf(g), &want);
  EXPECT_EQ(ct.Load(root, source), closed);
  EXPECT_EQ(ct.size(), want.members.size());
  if (!closed || ct.size() != want.members.size()) return want;
  EXPECT_EQ(ct.root_index(), want.root);
  std::size_t arcs = 0;
  for (std::size_t i = 0; i < ct.size(); ++i) {
    EXPECT_EQ(ct.member(i), want.members[i]);
    EXPECT_EQ(ct.IndexOf(want.members[i]), i);
    const auto got = ct.OutArcs(i);
    EXPECT_EQ(got.size(), want.out_arcs[i].size());
    for (std::size_t j = 0; j < std::min(got.size(), want.out_arcs[i].size());
         ++j) {
      EXPECT_EQ(ct.member(got[j].head), want.out_arcs[i][j].first);
      EXPECT_EQ(got[j].label, want.out_arcs[i][j].second);
    }
    arcs += got.size();
  }
  EXPECT_EQ(ct.arc_count(), arcs);
  return want;
}

// Random capacities for a cut: mostly finite, some members uncuttable.
std::vector<std::uint64_t> RandomCapacities(const CyclesThrough& ct,
                                            pardb::Rng& rng) {
  std::vector<std::uint64_t> cap;
  for (std::size_t i = 0; i < ct.size(); ++i) {
    cap.push_back(rng.Bernoulli(0.1) ? kInf : 1 + rng.Uniform(9));
  }
  return cap;
}

// The cut's members, after checking that they are non-root and priced at
// the flow; empty for an infinite cut.
std::vector<VertexId> CheckCut(const CyclesThrough& ct,
                               const std::vector<std::uint64_t>& cap,
                               const std::vector<std::size_t>& cut,
                               std::uint64_t flow) {
  std::vector<VertexId> victims;
  if (flow == kInf) {
    EXPECT_TRUE(cut.empty());
    return victims;
  }
  std::uint64_t paid = 0;
  for (std::size_t i : cut) {
    EXPECT_NE(i, ct.root_index());
    paid += cap[i];
    victims.push_back(ct.member(i));
  }
  EXPECT_EQ(paid, flow);
  return victims;
}

// Small graphs of both shapes, loaded into one instance: a DAG plus the
// root (every cycle through it, as under continuous detection) and
// arbitrary digraphs (cyclic remainders, as in a periodic scan or a
// cross-shard merge), with parallel labels, arcs into and out of the root
// and self-loops. Besides the component, the answers are checked against
// the enumeration oracle: on a DAG plus the root the exact count, the
// first cycle and the first cycle avoiding each member; otherwise a lower
// bound on the count and a first cycle that is one of the enumerated ones.
// The cut is the brute-force optimum and breaks every cycle through root.
TEST(CyclesThroughTest, LoadMatchesSortedSearchOracle) {
  pardb::Rng rng(2028);
  CyclesThrough ct;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool dag = trial % 2 == 0;
    const std::size_t n = 2 + rng.Uniform(dag ? 11 : 8);
    const std::vector<VertexId> id = RandomIds(rng, n);
    const VertexId root = id[0];
    Digraph g;
    for (VertexId v : id) g.AddVertex(v);
    EdgeLabel label = 0;
    if (dag) {
      const double density = 0.15 + 0.3 * rng.NextDouble();
      for (std::size_t a = 1; a < n; ++a) {
        if (rng.Bernoulli(0.4)) g.AddEdge(root, id[a], label++);
        if (rng.Bernoulli(0.4)) g.AddEdge(id[a], root, label++);
        for (std::size_t b = a + 1; b < n; ++b) {
          if (!rng.Bernoulli(density)) continue;
          g.AddEdge(id[a], id[b], label++);
          if (rng.Bernoulli(0.15)) g.AddEdge(id[a], id[b], label++);
        }
      }
    } else {
      const std::size_t m = n + rng.Uniform(2 * n);
      for (std::size_t e = 0; e < m; ++e) {
        // Few labels, so parallel arcs share heads and tails often.
        g.AddEdge(id[rng.Uniform(n)], id[rng.Uniform(n)], rng.Uniform(3));
      }
    }
    const OracleComponent want = CheckComponentMatchesOracle(ct, g, root, rng);
    const std::vector<Cycle> cycles = AllCyclesThrough(g, root);
    ASSERT_EQ(want.members.empty(), cycles.empty());
    if (cycles.empty()) continue;

    Cycle first;
    ASSERT_TRUE(ct.FirstCycle(&first));
    if (dag) {
      EXPECT_EQ(ct.CountCycles(), cycles.size());
      EXPECT_EQ(first.edges, cycles.front().edges);
      for (std::size_t x = 0; x < ct.size(); ++x) {
        if (x == ct.root_index()) continue;
        std::vector<char> excluded(ct.size(), 0);
        excluded[x] = 1;
        auto avoiding = std::find_if(cycles.begin(), cycles.end(),
                                     [&](const Cycle& c) {
                                       return !c.Contains(ct.member(x));
                                     });
        Cycle next;
        ASSERT_EQ(ct.FirstCycle(&next, &excluded), avoiding != cycles.end());
        if (avoiding != cycles.end()) {
          EXPECT_EQ(next.edges, avoiding->edges);
        }
      }
    } else {
      EXPECT_LE(ct.CountCycles(), cycles.size());
      EXPECT_NE(std::find_if(cycles.begin(), cycles.end(),
                             [&](const Cycle& c) {
                               return c.edges == first.edges;
                             }),
                cycles.end());
    }

    const std::vector<std::uint64_t> cap = RandomCapacities(ct, rng);
    std::vector<std::size_t> cut;
    const std::uint64_t flow = ct.MinVertexCut(cap, &cut);
    EXPECT_EQ(flow, BruteForceHittingSet(ct, cycles, cap));
    const std::vector<VertexId> victims = CheckCut(ct, cap, cut, flow);
    if (flow != kInf) {
      EXPECT_TRUE(AllCyclesThrough(Without(g, victims), root).empty());
    }
  }
}

// Simple paths from `from` back to root in the oracle's component when
// every cycle passes through root (memoized; saturating at kInf, as
// CountCycles does).
std::uint64_t OraclePathsToRoot(const OracleComponent& c, std::size_t from,
                                std::map<std::size_t, std::uint64_t>* memo) {
  if (auto it = memo->find(from); it != memo->end()) return it->second;
  std::uint64_t paths = 0;
  for (const Arc& a : c.out_arcs[from]) {
    const std::size_t head = static_cast<std::size_t>(
        std::lower_bound(c.members.begin(), c.members.end(), a.first) -
        c.members.begin());
    const std::uint64_t more =
        head == c.root ? 1 : OraclePathsToRoot(c, head, memo);
    paths = paths > kInf - more ? kInf : paths + more;
  }
  return (*memo)[from] = paths;
}

// Large components, far past the index table's first size so it grows
// mid-sweep, loaded into one instance between small ones: a DAG plus the
// root with several arcs out of most vertices, so the sweep meets members
// again after indexing them, growths included; plus sources that reach it
// without being reached and sinks it reaches without reaching back. The
// count is the oracle component's path count, the first cycle its
// first-arc walk (nothing backtracks when G − root is acyclic), and
// removing the cut leaves root on no cycle.
TEST(CyclesThroughTest, LargeReachGrowsTheIndexAndMatchesOracle) {
  pardb::Rng rng(77);
  CyclesThrough ct;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = trial % 4 == 0 ? 3 : 40 + rng.Uniform(600);
    const std::size_t extra = rng.Uniform(n / 4 + 1);
    const std::vector<VertexId> id = RandomIds(rng, n + 2 * extra);
    const VertexId root = id[0];
    Digraph g;
    EdgeLabel label = 0;
    // Odd trials add forward chords: counts past 2^64, which saturate.
    const int chords = trial % 2 == 1 ? 2 : 0;
    for (std::size_t a = 1; a < n; ++a) {
      // Into root or forward, so G − root stays acyclic.
      if (a + 1 == n || rng.Bernoulli(0.3)) g.AddEdge(id[a], root, label++);
      if (a + 1 < n) g.AddEdge(id[a], id[a + 1], label++);
      for (int k = 0; k < chords; ++k) {
        const std::size_t b = a + 1 + rng.Uniform(n - a);
        if (b < n) g.AddEdge(id[a], id[b], label++);
      }
      if (rng.Bernoulli(0.05)) g.AddEdge(id[a], id[a + 1 < n ? a + 1 : 0],
                                         label++);  // parallel
    }
    g.AddEdge(root, id[1], label++);
    for (std::size_t x = 0; x < extra; ++x) {
      for (int k = 0; k < 3; ++k) {
        g.AddEdge(id[n + x], id[rng.Uniform(n)], label++);
      }
      g.AddEdge(id[rng.Uniform(n)], id[n + extra + x], label++);
    }
    const OracleComponent want = CheckComponentMatchesOracle(ct, g, root, rng);
    ASSERT_FALSE(want.members.empty());

    std::map<std::size_t, std::uint64_t> memo;
    EXPECT_EQ(ct.CountCycles(), OraclePathsToRoot(want, want.root, &memo));
    Cycle first;
    ASSERT_TRUE(ct.FirstCycle(&first));
    std::vector<Edge> walk;
    VertexId at = root;
    do {
      const Arc& a = want.out_arcs[static_cast<std::size_t>(
          std::lower_bound(want.members.begin(), want.members.end(), at) -
          want.members.begin())][0];
      walk.push_back(Edge{at, a.first, a.second});
      at = a.first;
    } while (at != root);
    EXPECT_EQ(first.edges, walk);

    const std::vector<std::uint64_t> cap = RandomCapacities(ct, rng);
    std::vector<std::size_t> cut;
    const std::uint64_t flow = ct.MinVertexCut(cap, &cut);
    const std::vector<VertexId> victims = CheckCut(ct, cap, cut, flow);
    if (flow != kInf) {
      CyclesThrough rest;
      EXPECT_FALSE(rest.Load(root, InArcsOf(Without(g, victims))));
    }
  }
}

TEST(CycleTest, ToStringFormatsLoop) {
  Cycle c;
  c.vertices = {1, 2, 3};
  EXPECT_EQ(c.ToString(), "1 -> 2 -> 3 -> 1");
}

TEST(UndirectedTest, BasicOps) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(2, 2);  // self-loop ignored
  EXPECT_EQ(g.VertexCount(), 3u);
  EXPECT_EQ(g.EdgeCount(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_EQ(g.Neighbors(2), (std::vector<UndirectedGraph::VertexId>{1, 3}));
}

TEST(UndirectedTest, PathArticulationPoints) {
  // 0-1-2-3: interior vertices are articulation points.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1, 2}));
}

TEST(UndirectedTest, ChordRemovesArticulationPoints) {
  // Path 0..4 plus chord {0,4}: a ring, no articulation points.
  UndirectedGraph g;
  for (int i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(0, 4);
  EXPECT_TRUE(g.ArticulationPoints().empty());
}

TEST(UndirectedTest, PartialChord) {
  // Path 0..5 with chord {1,4}: articulation points are 1, 4 and 5's
  // neighbor 4 (interior vertices 2,3 are inside the ring).
  UndirectedGraph g;
  for (int i = 0; i < 5; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(1, 4);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1, 4}));
}

TEST(UndirectedTest, TwoComponents) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  EXPECT_FALSE(g.IsConnected());
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{1}));
}

TEST(UndirectedTest, RootWithTwoChildren) {
  // Star: center is the only articulation point.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  auto cuts = g.ArticulationPoints();
  EXPECT_EQ(cuts, (std::vector<UndirectedGraph::VertexId>{0}));
}

TEST(UndirectedTest, ConnectedAndDot) {
  UndirectedGraph g;
  g.AddEdge(0, 1);
  EXPECT_TRUE(g.IsConnected());
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace pardb::graph
