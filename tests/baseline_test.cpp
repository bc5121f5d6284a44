// Tests for the two-stage baseline: crop/geometry utilities, RPN proposer,
// listener/speaker matchers, and the assembled pipeline.
#include <cmath>

#include <gtest/gtest.h>

#include "baseline/matcher.h"
#include "baseline/proposer.h"
#include "data/renderer.h"

namespace yollo::baseline {
namespace {

ProposerConfig small_proposer_config() {
  ProposerConfig cfg;
  cfg.img_h = 48;
  cfg.img_w = 72;
  return cfg;
}

TEST(CropResizeTest, IdentityCropPreservesContent) {
  Rng rng(1);
  Tensor image = Tensor::rand({3, 16, 16}, rng);
  const Tensor crop =
      crop_resize(image, vision::Box{0, 0, 16, 16}, /*size=*/16);
  EXPECT_EQ(crop.shape(), (Shape{1, 3, 16, 16}));
  // Bilinear resampling at the same resolution reproduces interior pixels.
  EXPECT_NEAR(crop.at({0, 0, 8, 8}), image.at({0, 8, 8}), 1e-4f);
  EXPECT_NEAR(crop.at({0, 2, 5, 11}), image.at({2, 5, 11}), 1e-4f);
}

TEST(CropResizeTest, ZoomsIntoSubregion) {
  // Image with a bright quadrant: cropping that quadrant yields high mean.
  Tensor image({3, 20, 20});
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t y = 0; y < 10; ++y) {
      for (int64_t x = 0; x < 10; ++x) image.at({c, y, x}) = 1.0f;
    }
  }
  const Tensor bright = crop_resize(image, vision::Box{0, 0, 10, 10}, 8);
  const Tensor dark = crop_resize(image, vision::Box{10, 10, 10, 10}, 8);
  EXPECT_GT(mean(bright).item(), 0.9f);
  EXPECT_LT(mean(dark).item(), 0.1f);
}

TEST(CropResizeTest, OutOfBoundsBoxIsClipped) {
  Rng rng(2);
  Tensor image = Tensor::rand({3, 10, 10}, rng);
  const Tensor crop =
      crop_resize(image, vision::Box{-5, -5, 30, 30}, /*size=*/6);
  for (int64_t i = 0; i < crop.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(crop[i]));
  }
}

TEST(BoxGeometryTest, NormalisedDescriptor) {
  const Tensor g = box_geometry(vision::Box{18, 12, 36, 24}, 72, 48);
  EXPECT_EQ(g.numel(), 5);
  EXPECT_FLOAT_EQ(g[0], 0.5f);   // cx / W
  EXPECT_FLOAT_EQ(g[1], 0.5f);   // cy / H
  EXPECT_FLOAT_EQ(g[2], 0.5f);   // w / W
  EXPECT_FLOAT_EQ(g[3], 0.5f);   // h / H
  EXPECT_FLOAT_EQ(g[4], 0.25f);  // area fraction
}

TEST(ProposerTest, ForwardShapesAndProposeBounds) {
  ProposerConfig cfg = small_proposer_config();
  Rng rng(3);
  RegionProposalNetwork rpn(cfg, rng);
  rpn.set_training(false);
  Tensor image = Tensor::rand({1, 3, cfg.img_h, cfg.img_w}, rng);
  const auto out = rpn.forward(image);
  const int64_t num_anchors =
      cfg.grid_h() * cfg.grid_w() * cfg.anchors.anchors_per_cell();
  EXPECT_EQ(out.scores.shape(), (Shape{1, num_anchors}));
  EXPECT_EQ(out.deltas.shape(), (Shape{1, num_anchors, 4}));

  const auto proposals = rpn.propose(image);
  EXPECT_GT(proposals.size(), 0u);
  EXPECT_LE(static_cast<int64_t>(proposals.size()), cfg.max_proposals);
  for (const Proposal& p : proposals) {
    EXPECT_GE(p.box.x, 0.0f);
    EXPECT_LE(p.box.x2(), static_cast<float>(cfg.img_w) + 1e-3f);
  }
  // NMS guarantee: no two kept proposals overlap above the threshold.
  for (size_t i = 0; i < proposals.size(); ++i) {
    for (size_t j = i + 1; j < proposals.size(); ++j) {
      EXPECT_LE(vision::iou(proposals[i].box, proposals[j].box),
                cfg.nms_iou + 1e-4f);
    }
  }
}

TEST(ProposerTest, ProposalsOrderedByObjectness) {
  ProposerConfig cfg = small_proposer_config();
  Rng rng(4);
  RegionProposalNetwork rpn(cfg, rng);
  rpn.set_training(false);
  Tensor image = Tensor::rand({1, 3, cfg.img_h, cfg.img_w}, rng);
  const auto proposals = rpn.propose(image);
  for (size_t i = 1; i < proposals.size(); ++i) {
    EXPECT_GE(proposals[i - 1].objectness, proposals[i].objectness);
  }
}

TEST(ProposerTest, ShortTrainingReducesLoss) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = data::DatasetConfig::synthref(20, /*seed=*/11);
  dc.img_h = 48;
  dc.img_w = 72;
  const data::GroundingDataset dataset(dc, vocab);
  ProposerConfig cfg = small_proposer_config();
  Rng rng(5);
  RegionProposalNetwork rpn(cfg, rng);

  // Measure loss on a fixed batch before and after a short training run.
  auto fixed_loss = [&]() {
    std::vector<int64_t> idx = {0, 1, 2, 3};
    const Tensor images = data::render_batch(dataset.train(), idx);
    std::vector<const data::Scene*> scenes;
    for (int64_t i : idx) {
      scenes.push_back(&dataset.train()[static_cast<size_t>(i)].scene);
    }
    Rng loss_rng(7);
    const auto out = rpn.forward(images);
    return rpn.compute_loss(out, scenes, loss_rng).value().item();
  };
  const float before = fixed_loss();
  RpnTrainConfig tc;
  tc.epochs = 100;
  tc.max_steps = 25;
  train_rpn(rpn, dataset.train(), tc);
  const float after = fixed_loss();
  EXPECT_LT(after, before);
}

MatcherConfig small_matcher_config(const data::Vocab& vocab) {
  MatcherConfig cfg;
  cfg.vocab_size = vocab.size();
  return cfg;
}

TEST(ListenerTest, ScoresOnePerProposal) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  MatcherConfig cfg = small_matcher_config(vocab);
  Rng rng(6);
  ListenerMatcher listener(cfg, rng);
  listener.set_training(false);
  Tensor image = Tensor::rand({3, 48, 72}, rng);
  std::vector<Proposal> proposals = {{vision::Box{5, 5, 12, 12}, 0.9f},
                                     {vision::Box{30, 10, 16, 16}, 0.7f},
                                     {vision::Box{50, 25, 10, 14}, 0.5f}};
  const auto scores =
      listener.score_proposals(image, proposals, vocab.encode("red circle"));
  EXPECT_EQ(scores.shape(), (Shape{3}));
  // Scores must differ across proposals (different crops/geometry).
  EXPECT_GT(max_value(scores.value()) - min_value(scores.value()), 1e-6f);
}

TEST(ListenerTest, QueryAffectsScores) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  MatcherConfig cfg = small_matcher_config(vocab);
  Rng rng(7);
  ListenerMatcher listener(cfg, rng);
  listener.set_training(false);
  Tensor image = Tensor::rand({3, 48, 72}, rng);
  std::vector<Proposal> proposals = {{vision::Box{5, 5, 12, 12}, 0.9f},
                                     {vision::Box{30, 10, 16, 16}, 0.7f}};
  const Tensor s1 =
      listener.score_proposals(image, proposals, vocab.encode("red circle"))
          .value();
  const Tensor s2 =
      listener
          .score_proposals(image, proposals, vocab.encode("large blue square"))
          .value();
  EXPECT_GT(max_abs_diff(s1, s2), 1e-6f);
}

TEST(SpeakerTest, LogLikelihoodIsNegativeAndFinite) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  MatcherConfig cfg = small_matcher_config(vocab);
  Rng rng(8);
  SpeakerMatcher speaker(cfg, rng);
  speaker.set_training(false);
  Tensor image = Tensor::rand({3, 48, 72}, rng);
  const auto ll = speaker.query_log_likelihood(
      image, vision::Box{10, 10, 16, 16}, vocab.encode("small green ring"));
  EXPECT_TRUE(std::isfinite(ll.value().item()));
  EXPECT_LT(ll.value().item(), 0.0f);  // log-probability
}

TEST(SpeakerTest, TrainingRaisesLikelihoodOfSeenQueries) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = data::DatasetConfig::synthref(15, /*seed=*/12);
  dc.img_h = 48;
  dc.img_w = 72;
  const data::GroundingDataset dataset(dc, vocab);
  MatcherConfig cfg = small_matcher_config(vocab);
  Rng rng(9);
  SpeakerMatcher speaker(cfg, rng);
  const auto& s = dataset.train()[0];
  const Tensor image = data::render_scene(s.scene);
  const float before =
      speaker.query_log_likelihood(image, s.target_box(), s.tokens)
          .value()
          .item();
  MatcherTrainConfig tc;
  tc.epochs = 3;
  tc.max_steps = 60;
  train_speaker(speaker, dataset.train(), tc);
  speaker.set_training(false);
  const float after =
      speaker.query_log_likelihood(image, s.target_box(), s.tokens)
          .value()
          .item();
  EXPECT_GT(after, before);
}

TEST(PipelineTest, GroundReturnsBoxInsideImage) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  ProposerConfig pcfg = small_proposer_config();
  MatcherConfig mcfg = small_matcher_config(vocab);
  Rng rng(10);
  RegionProposalNetwork rpn(pcfg, rng);
  ListenerMatcher listener(mcfg, rng);
  SpeakerMatcher speaker(mcfg, rng);
  rpn.set_training(false);
  listener.set_training(false);
  speaker.set_training(false);
  Tensor image = Tensor::rand({3, 48, 72}, rng);
  for (MatchMode mode :
       {MatchMode::kListener, MatchMode::kSpeaker, MatchMode::kEnsemble}) {
    TwoStagePipeline pipeline(rpn, listener, speaker, mode);
    const vision::Box box = pipeline.ground(image, vocab.encode("red circle"));
    EXPECT_GE(box.x, 0.0f);
    EXPECT_GE(box.y, 0.0f);
    EXPECT_LE(box.x2(), 72.0f + 1e-3f);
    EXPECT_LE(box.y2(), 48.0f + 1e-3f);
  }
}

TEST(ClippingTest, BaselineGroundClipsToActualImageBounds) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  ProposerConfig pcfg = small_proposer_config();
  pcfg.max_proposals = 8;
  MatcherConfig mcfg = small_matcher_config(vocab);
  Rng rng(15);
  RegionProposalNetwork rpn(pcfg, rng);
  ListenerMatcher listener(mcfg, rng);
  SpeakerMatcher speaker(mcfg, rng);
  rpn.set_training(false);
  listener.set_training(false);
  speaker.set_training(false);
  TwoStagePipeline pipeline(rpn, listener, speaker, MatchMode::kListener);
  const auto expect_inside = [](const vision::Box& box) {
    EXPECT_TRUE(std::isfinite(box.x) && std::isfinite(box.y) &&
                std::isfinite(box.w) && std::isfinite(box.h));
    EXPECT_GE(box.x, 0.0f);
    EXPECT_GE(box.y, 0.0f);
    EXPECT_LE(box.x2(), 72.0f + 1e-4f);
    EXPECT_LE(box.y2(), 48.0f + 1e-4f);
  };

  // An untrained proposer decodes arbitrary deltas; whatever stage-i emits,
  // the single-box inference path must hand back a box inside the image.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng image_rng(seed);
    const Tensor image = Tensor::rand({3, 48, 72}, image_rng);
    expect_inside(pipeline.ground(image, vocab.encode("red circle")));
  }

  // Regression for the return-site clip itself: a proposal that leaks past
  // the frame (negative origin, width/height overshooting the canvas) must
  // come back fully contained once clipped against the *actual* image dims,
  // exactly as TwoStagePipeline::ground does.
  const vision::Box clipped =
      vision::clip_box(vision::Box{-10.0f, -6.0f, 120.0f, 90.0f}, 72.0f, 48.0f);
  expect_inside(clipped);
  EXPECT_LE(clipped.x + clipped.w, 72.0f);
  EXPECT_LE(clipped.y + clipped.h, 48.0f);
}

TEST(PipelineTest, ModeNames) {
  EXPECT_STREQ(match_mode_name(MatchMode::kListener), "listener");
  EXPECT_STREQ(match_mode_name(MatchMode::kSpeaker), "speaker");
  EXPECT_STREQ(match_mode_name(MatchMode::kEnsemble), "speaker+listener");
}

TEST(PipelineTest, EvaluateCoversSplit) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = data::DatasetConfig::synthref(10, /*seed=*/13);
  dc.img_h = 48;
  dc.img_w = 72;
  const data::GroundingDataset dataset(dc, vocab);
  ProposerConfig pcfg = small_proposer_config();
  MatcherConfig mcfg = small_matcher_config(vocab);
  Rng rng(11);
  RegionProposalNetwork rpn(pcfg, rng);
  ListenerMatcher listener(mcfg, rng);
  SpeakerMatcher speaker(mcfg, rng);
  rpn.set_training(false);
  listener.set_training(false);
  speaker.set_training(false);
  TwoStagePipeline pipeline(rpn, listener, speaker, MatchMode::kListener);
  const auto preds =
      evaluate_two_stage(pipeline, dataset.val(), dataset.max_query_len());
  EXPECT_EQ(preds.size(), dataset.val().size());
}

TEST(ProposerTest, RecallOfUntrainedRpnIsLow) {
  const data::Vocab vocab = data::Vocab::grounding_vocab();
  data::DatasetConfig dc = data::DatasetConfig::synthref(10, /*seed=*/14);
  dc.img_h = 48;
  dc.img_w = 72;
  const data::GroundingDataset dataset(dc, vocab);
  ProposerConfig cfg = small_proposer_config();
  Rng rng(12);
  RegionProposalNetwork rpn(cfg, rng);
  const double recall = proposal_recall(rpn, dataset.val());
  EXPECT_GE(recall, 0.0);
  EXPECT_LE(recall, 1.0);
}

}  // namespace
}  // namespace yollo::baseline
