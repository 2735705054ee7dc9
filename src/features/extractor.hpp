// FeatureExtractor: computes x_{u,q} (Sec. II-B) over an inference window.
//
// Construction does all the heavy lifting once per window F(q): tokenizes the
// posts, trains LDA over the window's documents, folds in topic distributions
// for questions outside the window, aggregates per-user answering statistics,
// and builds both SLN graphs with their closeness/betweenness centralities.
// After that, features(u, q) is a cheap assembly per pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "forum/dataset.hpp"
#include "features/feature_layout.hpp"
#include "graph/centrality_engine.hpp"
#include "graph/graph.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "topics/lda.hpp"
#include "util/stats.hpp"

namespace forumcast::features {

struct ExtractorConfig {
  std::size_t num_topics = 8;  ///< K (paper default 8)
  topics::LdaConfig lda = {};  ///< .num_topics is overridden by `num_topics`
  /// Only posts with timestamp ≤ this cutoff join the LDA training corpus;
  /// later posts (and questions whose post lies beyond it) get folded-in
  /// topic distributions instead. The default (+inf) trains on the whole
  /// window — the batch behavior. The streaming layer uses a finite cutoff
  /// to rebuild reference state whose topic model matches a live extractor
  /// that was fitted before the streamed events existed (see stream/).
  double topic_corpus_cutoff_hours = std::numeric_limits<double>::infinity();
  /// How the four SLN centrality arrays are computed and refreshed. The
  /// default (exact) keeps every historical digest bit-identical; sampled
  /// mode swaps in pivot-sampled estimates with incremental dirty-region
  /// refreshes so streaming ingest stops paying O(V·E) per batch.
  graph::CentralityConfig centrality = {};
};

class FeatureExtractor {
 public:
  /// Builds caches over the window `inference_set` ⊆ dataset questions.
  /// Pairs may later be queried for *any* question in the dataset (questions
  /// outside the window get folded-in topic distributions), but only window
  /// activity contributes to user history and graphs — this is exactly the
  /// F(q) semantics of Sec. IV.
  FeatureExtractor(const forum::Dataset& dataset,
                   std::span<const forum::QuestionId> inference_set,
                   ExtractorConfig config = {});

  /// Full feature vector x_{u,q}, dimension 18 + 2K, paper ordering.
  std::vector<double> features(forum::UserId u, forum::QuestionId q) const;

  const FeatureLayout& layout() const { return layout_; }
  std::size_t dimension() const { return layout_.dimension(); }
  std::size_t num_topics() const { return config_.num_topics; }
  const ExtractorConfig& config() const { return config_; }

  const graph::Graph& qa_graph() const { return qa_graph_; }
  const graph::Graph& dense_graph() const { return dense_graph_; }
  const topics::Lda& lda() const { return lda_; }

  /// Per-user aggregates over the window, exposed for the descriptive
  /// analytics of paper Figs. 3–4.
  struct UserStats {
    std::size_t answers_provided = 0;                ///< a_u
    std::size_t questions_asked = 0;
    double net_answer_votes = 0.0;                   ///< v_u
    std::vector<double> answer_votes;                ///< each v(p) by u
    std::vector<double> response_times;              ///< each delay by u
    std::vector<double> topic_distribution;          ///< d_u
    std::vector<forum::QuestionId> answered;         ///< window questions answered
    std::vector<double> answered_votes;              ///< votes aligned with `answered`
    std::vector<forum::QuestionId> participated;     ///< sorted thread ids (ask or answer)
  };

  const UserStats& user_stats(forum::UserId u) const;
  std::span<const double> question_topics(forum::QuestionId q) const;
  double question_word_length(forum::QuestionId q) const;
  double question_code_length(forum::QuestionId q) const;
  std::span<const double> qa_closeness() const { return qa_closeness_; }
  std::span<const double> qa_betweenness() const { return qa_betweenness_; }
  std::span<const double> dense_closeness() const { return dense_closeness_; }
  std::span<const double> dense_betweenness() const { return dense_betweenness_; }

  /// Median response time r_u, falling back to the window-global median for
  /// users without window answers (and 0 when the window has none at all).
  double median_response_time(forum::UserId u) const;

  /// Thread co-occurrence count h_{u,v} over the window.
  double thread_cooccurrence(forum::UserId u, forum::UserId v) const;

  /// The window-global median response delay — the r_u fallback for users
  /// with no window answers. stream::LiveState watches it to know when that
  /// fallback shifted under answerless users.
  double global_median_response() const { return global_median_response_; }

  // --- Streaming update API (driven by stream::LiveState) ---
  //
  // These mutate the extractor in place as live events arrive, with the
  // invariant that after stream_refresh() the observable state (features,
  // aggregates, graphs, centralities) is bit-identical to constructing a
  // fresh extractor over the mutated dataset with the same window plus the
  // streamed question ids and `topic_corpus_cutoff_hours` set to the fit-time
  // corpus horizon. Callers must mutate the shared forum::Dataset *first*
  // (append_thread / append_answer / apply_vote) and synchronize externally:
  // none of these are safe to run concurrently with feature reads.

  /// True if `q` is part of the inference window (original or streamed).
  bool in_window(forum::QuestionId q) const;

  /// Registers the freshly appended dataset question `q` (topics fold-in,
  /// lengths, asker aggregates) and adds it to the window.
  void stream_add_question(forum::QuestionId q);

  /// Registers answer `answer_index` of window thread `q` (user aggregates,
  /// topic doc fold-in, incremental G_QA/G_D edges). Returns true if any new
  /// graph edge appeared — centralities are then stale until
  /// stream_refresh().
  bool stream_add_answer(forum::QuestionId q, std::size_t answer_index);

  /// Applies a vote delta to the aggregates tracking answer `answer_index`
  /// of window thread `q`. The dataset post must already carry the delta.
  void stream_apply_answer_vote(forum::QuestionId q, std::size_t answer_index,
                                int delta);

  /// Recomputes state invalidated by stream_add_answer: the topic profiles
  /// d_u of users with new answer documents and, if the graph structure
  /// changed, all four centrality arrays — exactly (full Brandes) in the
  /// default mode, or via the pivot engines' dirty-region refresh in
  /// sampled mode.
  void stream_refresh();

  /// Swaps the centrality config in (decode path / post-load override).
  /// Requires a quiesced graph; drops any sampled pivot caches, so the next
  /// sampled refresh starts with a full pivot rebuild at epoch 0.
  void set_centrality_config(const graph::CentralityConfig& config);

  /// Serializes the complete fitted state — config, topic model +
  /// vocabulary, per-question topic/length caches, per-user aggregates
  /// (including the streamed-document fold-in accumulators), both SLN
  /// graphs, and all four centrality arrays — into a model-bundle section
  /// body. Requires a quiesced extractor: no pending stream_refresh() work.
  void encode(artifact::Encoder& enc) const;

  /// Rebuilds an extractor over `dataset` (which must be the dataset the
  /// encoded one was built on — question/user counts are validated). No fit
  /// stage runs: every cached value is restored verbatim, so features(u, q)
  /// and streamed fold-ins are bit-identical to the encoded extractor.
  static std::unique_ptr<FeatureExtractor> decode(
      artifact::Decoder& dec, const forum::Dataset& dataset);

 private:
  /// Decode-path constructor: wires the dataset and config without running
  /// any fit stage; decode() fills every cache afterwards.
  struct DecodeTag {};
  FeatureExtractor(const forum::Dataset& dataset, ExtractorConfig config,
                   DecodeTag);

  /// The two independent halves of construction, run concurrently: the
  /// topic model with everything derived from it (question topics and
  /// lengths, user aggregates), and the SLN graphs with their centralities.
  void build_topics_and_user_stats(
      std::span<const forum::QuestionId> inference_set);
  void build_sln_graphs(std::span<const forum::QuestionId> inference_set);

  /// Gibbs fold-in of question q's topics from its post's word text.
  std::vector<double> fold_question_topics(forum::QuestionId q,
                                           std::string_view words) const;

  /// Recomputes all four centrality arrays from scratch: full Brandes in
  /// exact mode, full pivot rebuilds in sampled mode.
  void refresh_centrality_full(std::size_t threads);
  /// Sampled-mode incremental path: feeds the edges recorded since the last
  /// refresh into each engine's dirty-region recompute.
  void refresh_centrality_incremental(std::size_t threads);

  const forum::Dataset& dataset_;
  ExtractorConfig config_;
  FeatureLayout layout_;

  topics::Lda lda_;
  std::vector<std::vector<double>> question_topics_;  // per dataset question
  std::vector<double> question_word_length_;
  std::vector<double> question_code_length_;

  std::vector<UserStats> user_stats_;
  double global_median_response_ = 0.0;

  graph::Graph qa_graph_;
  graph::Graph dense_graph_;
  std::vector<double> qa_closeness_;
  std::vector<double> qa_betweenness_;
  std::vector<double> dense_closeness_;
  std::vector<double> dense_betweenness_;

  // Sampled-mode machinery: per-graph pivot engines plus the edges inserted
  // since the last refresh (the dirty region fed to the incremental
  // recompute). Unused — and empty — in exact mode.
  graph::CentralityEngine qa_centrality_engine_;
  graph::CentralityEngine dense_centrality_engine_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> qa_new_edges_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> dense_new_edges_;

  // Retained text/topic machinery so streamed posts can be folded in with
  // the vocabulary and topic-word counts of the original fit.
  text::Tokenizer tokenizer_;
  text::Vocabulary vocabulary_;
  bool has_corpus_ = false;
  std::vector<forum::QuestionId> window_;  // sorted window question ids

  // Raw (unscaled) per-user answer-document topic sums and counts. d_u is
  // always recomputed from these in the batch accumulation order — trained
  // corpus documents first, then folded documents sorted by (question,
  // answer index) — so incremental updates reproduce the rebuild bits.
  std::vector<std::vector<double>> user_topic_accum_;
  std::vector<std::size_t> user_doc_count_;
  struct StreamedDoc {
    forum::QuestionId question = 0;
    std::uint32_t answer_index = 0;
    std::vector<double> theta;
  };
  std::vector<std::vector<StreamedDoc>> user_streamed_docs_;
  std::vector<forum::UserId> topics_dirty_;

  // Global median over all window response delays, maintained as an exact
  // streaming sketch (bit-equal to util::median over the same multiset).
  util::StreamingMedian global_delay_sketch_;
  bool graph_dirty_ = false;
};

}  // namespace forumcast::features
