//===- FigureGrids.cpp - The six paper-figure sweep grids -----------------===//

#include "FigureGrids.h"

#include <string>

using namespace tawa;

std::unique_ptr<Sweep> figures::fig8Gemm() {
  auto S = std::make_unique<Sweep>("fig8_gemm");
  const std::vector<int64_t> Ks = {256,  512,  1024, 2048,
                                   4096, 8192, 16384};
  const std::vector<Framework> Frameworks = {
      Framework::Peak,     Framework::CuBlas,        Framework::Tawa,
      Framework::Triton,   Framework::TileLang,      Framework::ThunderKittens};

  for (Precision Prec : {Precision::FP16, Precision::FP8}) {
    const char *PrecName = Prec == Precision::FP16 ? "FP16" : "FP8";
    for (int64_t K : Ks)
      for (Framework F : Frameworks) {
        GemmWorkload W;
        W.K = K;
        W.Prec = Prec;
        S->addGemm(W, F, {{"prec", PrecName}, {"K", std::to_string(K)}});
      }
  }
  return S;
}

std::unique_ptr<Sweep> figures::fig9GemmVariants() {
  auto S = std::make_unique<Sweep>("fig9_gemm_variants");
  const std::vector<Framework> Frameworks = {
      Framework::Tawa, Framework::Triton, Framework::TileLang};

  for (int64_t Size : {1024, 2048, 4096, 8192, 16384})
    for (Framework F : Frameworks) {
      GemmWorkload W;
      W.M = W.N = W.K = Size;
      W.Batch = 8;
      S->addGemm(W, F,
                 {{"panel", "batched"}, {"MNK", std::to_string(Size)}});
    }

  for (int64_t G = 2; G <= 6; ++G)
    for (Framework F : Frameworks) {
      GemmWorkload W;
      W.N = W.K = 4096;
      // Group sizes 512, 1024, ..., G*512 (heterogeneous shapes).
      for (int64_t I = 1; I <= G; ++I)
        W.GroupMs.push_back(512 * I);
      S->addGemm(W, F, {{"panel", "grouped"}, {"G", std::to_string(G)}});
    }
  return S;
}

std::unique_ptr<Sweep> figures::fig10Mha() {
  auto S = std::make_unique<Sweep>("fig10_mha");
  const std::vector<Framework> Frameworks = {
      Framework::FA3, Framework::Tawa, Framework::Triton,
      Framework::TileLang, Framework::ThunderKittens};

  for (Precision Prec : {Precision::FP16, Precision::FP8}) {
    for (bool Causal : {false, true}) {
      const char *PrecName = Prec == Precision::FP16 ? "FP16" : "FP8";
      std::string Panel = std::string(PrecName) +
                          (Causal ? ", causal" : ", non-causal");
      for (int64_t L : {1024, 2048, 4096, 8192, 16384})
        for (Framework F : Frameworks) {
          AttentionWorkload W;
          W.SeqLen = L;
          W.Causal = Causal;
          W.Prec = Prec;
          S->addAttention(W, F,
                          {{"panel", Panel},
                           {"prec", PrecName},
                           {"causal", Causal ? "true" : "false"},
                           {"L", std::to_string(L)}});
        }
    }
  }
  return S;
}

std::unique_ptr<Sweep> figures::fig11Hyperparam() {
  auto S = std::make_unique<Sweep>("fig11_hyperparam");
  GemmWorkload W;
  W.K = 16384;

  for (bool Persistent : {false, true})
    for (int64_t D = 1; D <= 3; ++D)
      for (int64_t P = 1; P <= 3; ++P) {
        FrameworkEnvelope E = getGemmEnvelope(Framework::Tawa, W);
        E.Options.ArefDepth = D;
        E.Options.MmaPipelineDepth = P;
        E.Options.Persistent = Persistent;
        S->addGemm(W, E, "Tawa",
                   {{"persistent", Persistent ? "Persistent"
                                              : "Non-Persistent"},
                    {"D", std::to_string(D)},
                    {"P", std::to_string(P)}});
      }
  return S;
}

std::unique_ptr<Sweep> figures::fig12Ablation() {
  auto S = std::make_unique<Sweep>("fig12_ablation");

  {
    GemmWorkload W;
    W.K = 16384;
    auto Add = [&](const char *Step, const FrameworkEnvelope &E) {
      S->addGemm(W, E, Step, {{"workload", "gemm"}, {"step", Step}});
    };

    // Step 0: Triton without warp specialization (synchronous loads).
    Add("Triton w/o WS", getGemmEnvelope(Framework::TritonNoPipe, W));

    // Step 1: + automatic warp specialization (one consumer group, same
    // 128x128 tiling).
    FrameworkEnvelope E;
    E.TileM = 128;
    E.TileN = 128;
    E.TileK = 64;
    E.Options.EnableWarpSpecialization = true;
    E.Options.ArefDepth = 2;
    E.Options.MmaPipelineDepth = 1;
    E.Options.NumConsumerGroups = 1;
    Add("+Auto WS", E);

    // Step 2: + cooperative warp groups (same tile: little change, but the
    // register headroom enables the next step).
    E.Options.NumConsumerGroups = 2;
    Add("+Cooperative WGs", E);

    // Step 3: + large tile size (128x256, register pooling of §IV-A).
    E.TileN = 256;
    Add("+Large Tile Size", E);

    // Step 4: + persistent kernel.
    E.Options.Persistent = true;
    Add("+Persistent Kernel", E);

    // Step 5: + tuned aref size / MMA depth.
    E.Options.ArefDepth = 3;
    E.Options.MmaPipelineDepth = 2;
    Add("+Better Aref Size", E);
  }

  {
    AttentionWorkload W;
    W.SeqLen = 16384;
    auto Add = [&](const char *Step, const FrameworkEnvelope &E) {
      S->addAttention(W, E, Step, {{"workload", "mha"}, {"step", Step}});
    };

    Add("Triton w/o WS", getAttentionEnvelope(Framework::TritonNoPipe, W));

    FrameworkEnvelope E;
    E.TileQ = 128;
    E.TileKv = 128;
    E.ComputeScale = getAttentionEnvelope(Framework::Tawa, W).ComputeScale;
    E.Options.EnableWarpSpecialization = true;
    E.Options.ArefDepth = 2;
    E.Options.MmaPipelineDepth = 0; // Synchronous dots.
    E.Options.NumConsumerGroups = 1;
    Add("+Auto WS", E);

    E.Options.NumConsumerGroups = 2;
    Add("+Cooperative WGs", E);

    E.Options.CoarsePipeline = true;
    Add("+Pipeline", E);

    E.Options.ArefDepth = 3;
    Add("+Better Aref Size", E);
  }
  return S;
}

std::unique_ptr<Sweep> figures::fig13Splitk() {
  auto S = std::make_unique<Sweep>("fig13_splitk");
  const std::vector<Framework> Frameworks = {Framework::Tawa,
                                             Framework::Triton};

  // Left panel: M = N = 512 (few output tiles), K = 16384 (deep reduction).
  for (int64_t Split : {1, 2, 3, 4, 6, 8})
    for (Framework F : Frameworks) {
      GemmWorkload W;
      W.M = W.N = 512;
      W.K = 16384;
      W.SplitK = Split;
      S->addGemm(W, F,
                 {{"panel", "splitk"}, {"split", std::to_string(Split)}});
    }

  // Right panel: N = K = 4096, experts of ragged M (multiples of 384, so
  // most experts end on a partial tile); expert 2 is empty from E = 4 on.
  for (int64_t E = 2; E <= 8; E += 2)
    for (Framework F : Frameworks) {
      GemmWorkload W;
      W.N = W.K = 4096;
      W.MoE = true;
      for (int64_t I = 0; I < E; ++I)
        W.GroupMs.push_back(I == 2 ? 0 : 384 * (I + 1));
      S->addGemm(W, F, {{"panel", "moe"}, {"E", std::to_string(E)}});
    }
  return S;
}

std::vector<std::unique_ptr<Sweep>> figures::allGrids() {
  std::vector<std::unique_ptr<Sweep>> Grids;
  Grids.push_back(fig8Gemm());
  Grids.push_back(fig9GemmVariants());
  Grids.push_back(fig10Mha());
  Grids.push_back(fig11Hyperparam());
  Grids.push_back(fig12Ablation());
  Grids.push_back(fig13Splitk());
  return Grids;
}
