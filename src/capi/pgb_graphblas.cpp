// Implementation of the C bindings. Exceptions are caught at the
// boundary and mapped to GrB_Info codes; object handles own their C++
// counterparts.
#include "capi/pgb_graphblas.h"

#include <memory>
#include <vector>

#include "core/graphblas.hpp"
#include "ingest/ingest.hpp"
#include "runtime/locale_grid.hpp"
#include "service/service.hpp"
#include "util/error.hpp"

struct pgb_matrix_opaque {
  pgb::DistCsr<double> m;
};

struct pgb_vector_opaque {
  pgb::DistSparseVec<double> v;
};

namespace {

std::unique_ptr<pgb::LocaleGrid> g_grid;
std::unique_ptr<pgb::GraphService> g_service;
std::unique_ptr<pgb::IngestStream> g_ingest;
pgb::GraphStore::HandleId g_ingest_handle = -1;

GrB_Info map_exception() {
  try {
    throw;
  } catch (const pgb::ServiceOverloaded&) {
    return GrB_OUT_OF_RESOURCES;
  } catch (const pgb::InvalidHandleError&) {
    return GrB_INVALID_OBJECT;
  } catch (const pgb::TenantThrottled&) {
    return GrB_TENANT_THROTTLED;
  } catch (const pgb::DeadlineExpired&) {
    return GrB_DEADLINE_EXPIRED;
  } catch (const pgb::DimensionMismatch&) {
    return GrB_DIMENSION_MISMATCH;
  } catch (const pgb::InvalidArgument&) {
    return GrB_INVALID_VALUE;
  } catch (const std::bad_alloc&) {
    return GrB_PANIC;
  } catch (...) {
    return GrB_PANIC;
  }
}

#define PGB_C_GUARD(body)            \
  if (g_grid == nullptr) {           \
    return GrB_UNINITIALIZED_OBJECT; \
  }                                  \
  try {                              \
    body;                            \
    return GrB_SUCCESS;              \
  } catch (...) {                    \
    return map_exception();          \
  }

pgb::MaskMode to_mask_mode(pgb_mask_t m) {
  switch (m) {
    case PGB_MASK:
      return pgb::MaskMode::kMask;
    case PGB_MASK_COMPLEMENT:
      return pgb::MaskMode::kComplement;
    default:
      return pgb::MaskMode::kNone;
  }
}

/// Applies the selected built-in binary op.
double apply_binop(pgb_binary_op_t op, double a, double b) {
  switch (op) {
    case PGB_PLUS:
      return a + b;
    case PGB_TIMES:
      return a * b;
    case PGB_MIN:
      return a < b ? a : b;
    case PGB_MAX:
      return a > b ? a : b;
    case PGB_FIRST:
      return a;
    case PGB_SECOND:
      return b;
  }
  return a;
}

bool to_query_kind(pgb_query_kind_t kind, pgb::QueryKind* out) {
  switch (kind) {
    case PGB_QUERY_BFS:
      *out = pgb::QueryKind::kBfs;
      return true;
    case PGB_QUERY_SSSP:
      *out = pgb::QueryKind::kSssp;
      return true;
    case PGB_QUERY_PAGERANK_SUBGRAPH:
      *out = pgb::QueryKind::kPagerankSubgraph;
      return true;
    case PGB_QUERY_EGO_NET:
      *out = pgb::QueryKind::kEgoNet;
      return true;
  }
  return false;
}

}  // namespace

extern "C" {

GrB_Info pgb_init(int nlocales, int threads_per_locale) {
  try {
    g_grid = std::make_unique<pgb::LocaleGrid>(
        pgb::LocaleGrid::square(nlocales, threads_per_locale));
    return GrB_SUCCESS;
  } catch (...) {
    return map_exception();
  }
}

GrB_Info pgb_finalize(void) {
  g_ingest.reset();  // the stream borrows the service's store: first out
  g_ingest_handle = -1;
  g_service.reset();  // the service borrows the grid: tear it down first
  g_grid.reset();
  return GrB_SUCCESS;
}

double pgb_elapsed_seconds(void) {
  return g_grid ? g_grid->time() : 0.0;
}

void pgb_reset_clock(void) {
  if (g_grid) g_grid->reset();
}

// ---- matrices ----

GrB_Info GrB_Matrix_new(GrB_Matrix* m, GrB_Index nrows, GrB_Index ncols) {
  if (m == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD(*m = new pgb_matrix_opaque{
                  pgb::DistCsr<double>(*g_grid, static_cast<pgb::Index>(nrows),
                                       static_cast<pgb::Index>(ncols))});
}

GrB_Info GrB_Matrix_free(GrB_Matrix* m) {
  if (m == nullptr) return GrB_NULL_POINTER;
  delete *m;
  *m = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_nrows(GrB_Index* out, GrB_Matrix m) {
  if (out == nullptr || m == nullptr) return GrB_NULL_POINTER;
  *out = static_cast<GrB_Index>(m->m.nrows());
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_ncols(GrB_Index* out, GrB_Matrix m) {
  if (out == nullptr || m == nullptr) return GrB_NULL_POINTER;
  *out = static_cast<GrB_Index>(m->m.ncols());
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_nvals(GrB_Index* out, GrB_Matrix m) {
  if (out == nullptr || m == nullptr) return GrB_NULL_POINTER;
  *out = static_cast<GrB_Index>(m->m.nnz());
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_build(GrB_Matrix m, const GrB_Index* rows,
                          const GrB_Index* cols, const double* vals,
                          GrB_Index nvals) {
  if (m == nullptr || (nvals > 0 && (rows == nullptr || cols == nullptr ||
                                     vals == nullptr))) {
    return GrB_NULL_POINTER;
  }
  PGB_C_GUARD({
    pgb::Coo<double> coo(m->m.nrows(), m->m.ncols());
    coo.reserve(static_cast<std::size_t>(nvals));
    for (GrB_Index k = 0; k < nvals; ++k) {
      if (rows[k] >= static_cast<GrB_Index>(m->m.nrows()) ||
          cols[k] >= static_cast<GrB_Index>(m->m.ncols())) {
        return GrB_INDEX_OUT_OF_BOUNDS;
      }
      coo.add(static_cast<pgb::Index>(rows[k]),
              static_cast<pgb::Index>(cols[k]), vals[k]);
    }
    m->m = pgb::DistCsr<double>::from_coo(
        *g_grid, coo, [](double a, double b) { return a + b; });
  });
}

GrB_Info GrB_Matrix_extractElement(double* out, GrB_Matrix m, GrB_Index r,
                                   GrB_Index c) {
  if (out == nullptr || m == nullptr) return GrB_NULL_POINTER;
  if (r >= static_cast<GrB_Index>(m->m.nrows()) ||
      c >= static_cast<GrB_Index>(m->m.ncols())) {
    return GrB_INDEX_OUT_OF_BOUNDS;
  }
  const int l = m->m.dist().locale_of(static_cast<pgb::Index>(r),
                                      static_cast<pgb::Index>(c));
  const auto& blk = m->m.block(l);
  const double* v = blk.csr.find(static_cast<pgb::Index>(r) - blk.rlo,
                                 static_cast<pgb::Index>(c));
  if (v == nullptr) return GrB_INVALID_VALUE;  // no entry stored
  *out = *v;
  return GrB_SUCCESS;
}

// ---- vectors ----

GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Index size) {
  if (v == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD(*v = new pgb_vector_opaque{pgb::DistSparseVec<double>(
                  *g_grid, static_cast<pgb::Index>(size))});
}

GrB_Info GrB_Vector_free(GrB_Vector* v) {
  if (v == nullptr) return GrB_NULL_POINTER;
  delete *v;
  *v = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_size(GrB_Index* out, GrB_Vector v) {
  if (out == nullptr || v == nullptr) return GrB_NULL_POINTER;
  *out = static_cast<GrB_Index>(v->v.capacity());
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_nvals(GrB_Index* out, GrB_Vector v) {
  if (out == nullptr || v == nullptr) return GrB_NULL_POINTER;
  *out = static_cast<GrB_Index>(v->v.nnz());
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_build(GrB_Vector v, const GrB_Index* idx,
                          const double* vals, GrB_Index nvals) {
  if (v == nullptr || (nvals > 0 && (idx == nullptr || vals == nullptr))) {
    return GrB_NULL_POINTER;
  }
  PGB_C_GUARD({
    std::vector<pgb::Index> is;
    std::vector<double> vs;
    is.reserve(static_cast<std::size_t>(nvals));
    vs.reserve(static_cast<std::size_t>(nvals));
    for (GrB_Index k = 0; k < nvals; ++k) {
      if (idx[k] >= static_cast<GrB_Index>(v->v.capacity())) {
        return GrB_INDEX_OUT_OF_BOUNDS;
      }
      is.push_back(static_cast<pgb::Index>(idx[k]));
      vs.push_back(vals[k]);
    }
    pgb::sort_pairs_by_index(is, vs);
    for (std::size_t k = 1; k < is.size(); ++k) {
      if (is[k - 1] == is[k]) return GrB_INVALID_VALUE;  // duplicates
    }
    v->v = pgb::DistSparseVec<double>::from_sorted(*g_grid, v->v.capacity(),
                                                   is, vs);
  });
}

GrB_Info GrB_Vector_setElement(GrB_Vector v, double val, GrB_Index i) {
  if (v == nullptr) return GrB_NULL_POINTER;
  if (i >= static_cast<GrB_Index>(v->v.capacity())) {
    return GrB_INDEX_OUT_OF_BOUNDS;
  }
  PGB_C_GUARD({
    // Merge one element (rebuilds the owner's local block).
    auto local = v->v.to_local();
    std::vector<pgb::Index> is(local.domain().indices().begin(),
                               local.domain().indices().end());
    std::vector<double> vs(local.values().begin(), local.values().end());
    const auto pos = local.domain().find(static_cast<pgb::Index>(i));
    if (pos >= 0) {
      vs[static_cast<std::size_t>(pos)] = val;
    } else {
      is.push_back(static_cast<pgb::Index>(i));
      vs.push_back(val);
      pgb::sort_pairs_by_index(is, vs);
    }
    v->v = pgb::DistSparseVec<double>::from_sorted(*g_grid, v->v.capacity(),
                                                   is, vs);
  });
}

GrB_Info GrB_Vector_extractElement(double* out, GrB_Vector v, GrB_Index i) {
  if (out == nullptr || v == nullptr) return GrB_NULL_POINTER;
  if (i >= static_cast<GrB_Index>(v->v.capacity())) {
    return GrB_INDEX_OUT_OF_BOUNDS;
  }
  const int owner = v->v.owner(static_cast<pgb::Index>(i));
  const double* p = v->v.local(owner).find(static_cast<pgb::Index>(i));
  if (p == nullptr) return GrB_INVALID_VALUE;
  *out = *p;
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_extractTuples(GrB_Index* idx, double* vals,
                                  GrB_Index* nvals, GrB_Vector v) {
  if (idx == nullptr || vals == nullptr || nvals == nullptr || v == nullptr) {
    return GrB_NULL_POINTER;
  }
  const GrB_Index have = static_cast<GrB_Index>(v->v.nnz());
  if (*nvals < have) return GrB_INVALID_VALUE;
  auto local = v->v.to_local();
  for (pgb::Index p = 0; p < local.nnz(); ++p) {
    idx[p] = static_cast<GrB_Index>(local.index_at(p));
    vals[p] = local.value_at(p);
  }
  *nvals = have;
  return GrB_SUCCESS;
}

// ---- operations ----

GrB_Info GrB_vxm(GrB_Vector w, GrB_Vector mask, pgb_mask_t mask_mode,
                 pgb_semiring_t semiring, GrB_Vector u, GrB_Matrix a) {
  if (w == nullptr || u == nullptr || a == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD({
    auto run = [&](const auto& sr) {
      if (mask != nullptr && mask_mode != PGB_MASK_NONE) {
        // Densify the mask's pattern.
        pgb::DistDenseVec<std::uint8_t> dm(*g_grid, mask->v.capacity(), 0);
        for (int l = 0; l < g_grid->num_locales(); ++l) {
          const auto& lm = mask->v.local(l);
          for (pgb::Index p = 0; p < lm.nnz(); ++p) {
            dm.local(l)[lm.index_at(p)] = 1;
          }
        }
        return pgb::spmspv_dist_masked(a->m, u->v, dm,
                                       to_mask_mode(mask_mode), sr);
      }
      return pgb::spmspv_dist(a->m, u->v, sr);
    };
    switch (semiring) {
      case PGB_PLUS_TIMES:
        w->v = run(pgb::arithmetic_semiring<double>());
        break;
      case PGB_MIN_PLUS:
        w->v = run(pgb::min_plus_semiring<double>());
        break;
      case PGB_MIN_FIRST:
        w->v = run(pgb::min_first_semiring<double>());
        break;
      case PGB_LOR_LAND:
        w->v = run(pgb::boolean_semiring<double>());
        break;
      default:
        return GrB_INVALID_VALUE;
    }
  });
}

GrB_Info GrB_eWiseMult(GrB_Vector w, pgb_binary_op_t op, GrB_Vector u,
                       GrB_Vector v) {
  if (w == nullptr || u == nullptr || v == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD(w->v = pgb::ewise_mult_ss(
                  u->v, v->v,
                  [op](double a, double b) { return apply_binop(op, a, b); }));
}

GrB_Info GrB_eWiseAdd(GrB_Vector w, pgb_binary_op_t op, GrB_Vector u,
                      GrB_Vector v) {
  if (w == nullptr || u == nullptr || v == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD(w->v = pgb::ewise_add(
                  u->v, v->v,
                  [op](double a, double b) { return apply_binop(op, a, b); }));
}

GrB_Info GrB_apply(GrB_Vector w, pgb_unary_op_t op, GrB_Vector u) {
  if (w == nullptr || u == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD({
    pgb::assign_v2(w->v, u->v);
    switch (op) {
      case PGB_IDENTITY:
        break;
      case PGB_NEGATE:
        pgb::apply_v2(w->v, pgb::NegateOp{});
        break;
      default:
        return GrB_INVALID_VALUE;
    }
  });
}

GrB_Info GrB_assign(GrB_Vector w, GrB_Vector u) {
  if (w == nullptr || u == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD(pgb::assign_v2(w->v, u->v));
}

// ---- graph service ----

GrB_Info pgb_service_open(int queue_depth, int batch_max) {
  return pgb_service_open_ex(queue_depth, batch_max, 0.0, 8.0, 0, 0.05);
}

GrB_Info pgb_service_open_ex(int queue_depth, int batch_max,
                             double tenant_quota_qps, double tenant_quota_burst,
                             int breaker_k, double breaker_cooldown_s) {
  if (queue_depth < 1 || batch_max < 1 || tenant_quota_qps < 0.0 ||
      tenant_quota_burst < 1.0 || breaker_k < 0 || breaker_cooldown_s <= 0.0) {
    return GrB_INVALID_VALUE;
  }
  PGB_C_GUARD({
    pgb::ServiceConfig cfg;
    cfg.queue_depth = queue_depth;
    cfg.batch_max = batch_max;
    cfg.governor.quota_qps = tenant_quota_qps;
    cfg.governor.quota_burst = tenant_quota_burst;
    cfg.governor.breaker_k = breaker_k;
    cfg.governor.breaker_cooldown_s = breaker_cooldown_s;
    g_service = std::make_unique<pgb::GraphService>(*g_grid, cfg);
  });
}

GrB_Info pgb_service_close(void) {
  g_ingest.reset();
  g_ingest_handle = -1;
  g_service.reset();
  return GrB_SUCCESS;
}

GrB_Info pgb_graph_load(pgb_graph_handle_t* out, GrB_Matrix m) {
  if (out == nullptr || m == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(*out = static_cast<pgb_graph_handle_t>(g_service->store().load(
                  std::make_shared<pgb::DistCsr<double>>(m->m))));
}

GrB_Info pgb_graph_publish(pgb_graph_handle_t h, GrB_Matrix m,
                           uint64_t* epoch_out) {
  if (m == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    const std::uint64_t e = g_service->store().publish(
        h, std::make_shared<pgb::DistCsr<double>>(m->m));
    if (epoch_out != nullptr) *epoch_out = e;
  });
}

GrB_Info pgb_graph_epoch(uint64_t* out, pgb_graph_handle_t h) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(*out = g_service->store().epoch(h));
}

GrB_Info pgb_graph_close(pgb_graph_handle_t h) {
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(g_service->store().close(h));
}

GrB_Info pgb_query_submit(pgb_query_id_t* out, pgb_graph_handle_t h,
                          pgb_query_kind_t kind, GrB_Index source,
                          GrB_Index depth, int tenant,
                          uint64_t expected_epoch) {
  return pgb_query_submit_ex(out, h, kind, source, depth, tenant,
                             expected_epoch, 0.0, nullptr);
}

GrB_Info pgb_query_submit_ex(pgb_query_id_t* out, pgb_graph_handle_t h,
                             pgb_query_kind_t kind, GrB_Index source,
                             GrB_Index depth, int tenant,
                             uint64_t expected_epoch, double deadline_s,
                             double* retry_after_s_out) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  if (deadline_s < 0.0) return GrB_INVALID_VALUE;
  PGB_C_GUARD({
    pgb::QuerySpec spec;
    if (!to_query_kind(kind, &spec.kind)) return GrB_INVALID_VALUE;
    spec.source = static_cast<pgb::Index>(source);
    spec.depth = static_cast<pgb::Index>(depth);
    spec.tenant = tenant;
    spec.deadline_s = deadline_s;
    // The non-strict submit path, so a queue-full rejection can hand its
    // retry-after hint out; snapshot() still throws InvalidHandleError
    // (-> GrB_INVALID_OBJECT) for closed/unknown handles.
    const auto s = g_service->submit(h, spec, g_grid->time(), expected_epoch);
    switch (s.code) {
      case pgb::AdmitCode::kAdmitted:
        *out = static_cast<pgb_query_id_t>(s.id);
        break;
      case pgb::AdmitCode::kQueueFull:
        if (retry_after_s_out != nullptr) *retry_after_s_out = s.retry_after_s;
        return GrB_OUT_OF_RESOURCES;
      case pgb::AdmitCode::kTenantThrottled:
        return GrB_TENANT_THROTTLED;
      case pgb::AdmitCode::kStaleHandle:
        return GrB_INVALID_OBJECT;
      case pgb::AdmitCode::kBadQuery:
        return GrB_INVALID_VALUE;
    }
  });
}

GrB_Info pgb_service_drain(void) {
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(g_service->drain());
}

GrB_Info pgb_query_done(int* out, pgb_query_id_t id) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(
      *out = g_service->record(id).state == pgb::QueryState::kDone ? 1 : 0);
}

GrB_Info pgb_query_state(int* out, pgb_query_id_t id) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    switch (g_service->record(id).state) {
      case pgb::QueryState::kQueued:
        *out = 0;
        break;
      case pgb::QueryState::kDone:
        *out = 1;
        break;
      case pgb::QueryState::kDeadlineExpired:
        *out = 2;
        break;
    }
  });
}

GrB_Info pgb_query_release(pgb_query_id_t id) {
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD(g_service->release(id));
}

GrB_Info pgb_service_health(int* degraded_locales, int* open_breakers) {
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    pgb::ServiceHealth h = g_service->health();
    if (degraded_locales != nullptr) *degraded_locales = h.degraded_locales;
    if (open_breakers != nullptr) *open_breakers = h.open_breakers();
  });
}

GrB_Info pgb_query_bfs_parent(int64_t* out, pgb_query_id_t id, GrB_Index v) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    const auto& rec = g_service->record(id);
    if (rec.state == pgb::QueryState::kDeadlineExpired) {
      return GrB_DEADLINE_EXPIRED;
    }
    if (rec.state != pgb::QueryState::kDone ||
        rec.kind != pgb::QueryKind::kBfs) {
      return GrB_INVALID_VALUE;
    }
    if (v >= rec.result.bfs.parent.size()) return GrB_INDEX_OUT_OF_BOUNDS;
    *out = static_cast<int64_t>(rec.result.bfs.parent[v]);
  });
}

GrB_Info pgb_query_sssp_dist(double* out, pgb_query_id_t id, GrB_Index v) {
  if (out == nullptr) return GrB_NULL_POINTER;
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    const auto& rec = g_service->record(id);
    if (rec.state == pgb::QueryState::kDeadlineExpired) {
      return GrB_DEADLINE_EXPIRED;
    }
    if (rec.state != pgb::QueryState::kDone ||
        rec.kind != pgb::QueryKind::kSssp) {
      return GrB_INVALID_VALUE;
    }
    if (v >= rec.result.sssp.dist.size()) return GrB_INDEX_OUT_OF_BOUNDS;
    *out = rec.result.sssp.dist[v];
  });
}

GrB_Info pgb_ingest_open(pgb_graph_handle_t h, int64_t compact_every) {
  if (g_service == nullptr) return GrB_UNINITIALIZED_OBJECT;
  if (compact_every < 1) return GrB_INVALID_VALUE;
  PGB_C_GUARD({
    const auto snap = g_service->store().snapshot(h);
    pgb::IngestOptions opt;
    opt.compact_every = compact_every;
    g_ingest = std::make_unique<pgb::IngestStream>(
        *g_grid, g_service->store(), h, *snap.graph, opt,
        g_service->event_log());
    g_ingest_handle = h;
  });
}

GrB_Info pgb_ingest_apply(int64_t n, const GrB_Index* rows,
                          const GrB_Index* cols, const double* vals,
                          const int* ops) {
  if (g_ingest == nullptr) return GrB_UNINITIALIZED_OBJECT;
  if (n < 0) return GrB_INVALID_VALUE;
  if (n > 0 && (rows == nullptr || cols == nullptr)) return GrB_NULL_POINTER;
  PGB_C_GUARD({
    pgb::MutationBatch batch;
    batch.seq = g_ingest->acked_seq() + 1;
    batch.deltas.reserve(static_cast<std::size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      pgb::EdgeDelta d;
      d.row = static_cast<pgb::Index>(rows[i]);
      d.col = static_cast<pgb::Index>(cols[i]);
      d.val = vals != nullptr ? vals[i] : 1.0;
      d.op = (ops != nullptr && ops[i] != 0) ? pgb::DeltaOp::kDelete
                                             : pgb::DeltaOp::kInsert;
      batch.deltas.push_back(d);
    }
    batch.stamp();
    g_ingest->apply(batch);
  });
}

GrB_Info pgb_ingest_publish(uint64_t* epoch_out) {
  if (g_ingest == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    const std::uint64_t e = g_ingest->publish();
    if (epoch_out != nullptr) *epoch_out = e;
  });
}

GrB_Info pgb_ingest_stats(int64_t* batches, int64_t* deltas,
                          int64_t* replays, uint64_t* graph_hash) {
  if (g_ingest == nullptr) return GrB_UNINITIALIZED_OBJECT;
  PGB_C_GUARD({
    const pgb::IngestStats& s = g_ingest->stats();
    if (batches != nullptr) *batches = s.batches;
    if (deltas != nullptr) *deltas = s.deltas;
    if (replays != nullptr) *replays = s.replays;
    if (graph_hash != nullptr) {
      const auto snap = g_service->store().snapshot(g_ingest_handle);
      *graph_hash = pgb::ingest_graph_hash(*snap.graph);
    }
  });
}

GrB_Info pgb_ingest_close(void) {
  g_ingest.reset();
  g_ingest_handle = -1;
  return GrB_SUCCESS;
}

GrB_Info GrB_reduce(double* out, pgb_binary_op_t op, GrB_Vector u) {
  if (out == nullptr || u == nullptr) return GrB_NULL_POINTER;
  PGB_C_GUARD({
    switch (op) {
      case PGB_PLUS:
        *out = pgb::reduce(u->v, pgb::plus_monoid<double>());
        break;
      case PGB_MIN:
        *out = pgb::reduce(u->v, pgb::min_monoid<double>());
        break;
      case PGB_MAX:
        *out = pgb::reduce(u->v, pgb::max_monoid<double>());
        break;
      default:
        return GrB_INVALID_VALUE;
    }
  });
}

}  // extern "C"
