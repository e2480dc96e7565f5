// Unit tests of the retra_analyze tokenizer and analyses
// (tools/retra_analyze): every rule is exercised with a violating and a
// clean fixture, plus the `// retra-analyze: allow(<rule>)` escape.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis.hpp"
#include "tokenizer.hpp"

namespace retra::analyze {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string messages(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

AnalysisInput input_of(std::string path, std::string content) {
  AnalysisInput input;
  input.files.push_back({std::move(path), std::move(content)});
  return input;
}

// ------------------------------------------------------------------
// Tokenizer

TEST(Tokenizer, KindsAndLines) {
  const auto toks = tokenize("int x = 42;\nreturn x + 0x1F;\n");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_EQ(toks[3].text, "42");
  EXPECT_EQ(toks[5].text, "return");
  EXPECT_EQ(toks[5].line, 2);
}

TEST(Tokenizer, CommentsAreSkippedButLinesCounted) {
  const auto toks = tokenize("// one\n/* two\nthree */ four\n");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].text, "four");
  EXPECT_EQ(toks[0].line, 3);
}

TEST(Tokenizer, DigitSeparatorsStayInOneNumber) {
  const auto toks = tokenize("x = 1'000'000;");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[2].kind, TokKind::kNumber);
  EXPECT_EQ(toks[2].text, "1'000'000");
}

TEST(Tokenizer, DigitSeparatorDoesNotEatFollowingCharLiteral) {
  // `1` then the char literal 'a' — the apostrophe is not a separator.
  const auto toks = tokenize("f(1,'a');");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[2].kind, TokKind::kNumber);
  EXPECT_EQ(toks[2].text, "1");
  EXPECT_EQ(toks[4].kind, TokKind::kChar);
}

TEST(Tokenizer, RawStringIsOneToken) {
  const auto toks = tokenize(R"src(s = R"(say "rand" loudly)"; t = 1;)src");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[2].kind, TokKind::kString);
  EXPECT_EQ(string_value(toks[2]), "say \"rand\" loudly");
  // Tokenisation resynchronised after the raw string.
  EXPECT_EQ(toks[4].text, "t");
}

TEST(Tokenizer, StripToCodeBlanksCommentAndLiteralContents) {
  const std::string stripped =
      strip_to_code("int a; // rand here\nchar c = \"mt19937\"[0];\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("mt19937"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  // Line structure intact.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
}

TEST(Tokenizer, StripToCodeHandlesRawStrings) {
  const std::string src =
      "auto s = R\"(contains rand and \" quote)\";\nint rand_free;\n";
  const std::string stripped = strip_to_code(src);
  EXPECT_EQ(stripped.find("contains"), std::string::npos);
  // Code after the raw string survives: the inner quote did not
  // desynchronise the stripper.
  EXPECT_NE(stripped.find("int rand_free;"), std::string::npos);
}

// ------------------------------------------------------------------
// pragma-once

TEST(PragmaOnce, HeaderWithGuardPasses) {
  const auto findings = analyze_files(input_of(
      "src/db/include/retra/db/x.hpp", "// comment\n#pragma once\nint f();\n"));
  EXPECT_FALSE(has_rule(findings, "pragma-once"));
}

TEST(PragmaOnce, HeaderWithoutGuardFails) {
  const auto findings = analyze_files(input_of(
      "src/db/include/retra/db/x.hpp", "int f();\n"));
  ASSERT_TRUE(has_rule(findings, "pragma-once"));
}

TEST(PragmaOnce, GuardMustPrecedeCode) {
  const auto findings = analyze_files(input_of(
      "src/db/include/retra/db/x.hpp", "int f();\n#pragma once\n"));
  EXPECT_TRUE(has_rule(findings, "pragma-once"));
}

TEST(PragmaOnce, SourceFilesAreExempt) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "int f() { return 1; }\n"));
  EXPECT_FALSE(has_rule(findings, "pragma-once"));
}

// ------------------------------------------------------------------
// include-hygiene

TEST(IncludeHygiene, FullProjectPathPasses) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp",
      "#include \"retra/db/database.hpp\"\n#include <vector>\n"));
  EXPECT_FALSE(has_rule(findings, "include-hygiene"));
}

TEST(IncludeHygiene, RelativeQuotedIncludeUnderSrcFails) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "#include \"database.hpp\"\n"));
  EXPECT_TRUE(has_rule(findings, "include-hygiene"));
}

TEST(IncludeHygiene, QuotedIncludeOutsideSrcIsAllowed) {
  const auto findings = analyze_files(input_of(
      "bench/bench_x.cpp", "#include \"bench_common.hpp\"\n"));
  EXPECT_FALSE(has_rule(findings, "include-hygiene"));
}

TEST(IncludeHygiene, BitsIncludeFails) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "#include <bits/stdc++.h>\n"));
  EXPECT_TRUE(has_rule(findings, "include-hygiene"));
}

TEST(IncludeHygiene, ParentTraversalFails) {
  const auto findings = analyze_files(input_of(
      "tests/x.cpp", "#include \"../src/db/secret.hpp\"\n"));
  EXPECT_TRUE(has_rule(findings, "include-hygiene"));
}

// ------------------------------------------------------------------
// determinism

TEST(Determinism, WallClockInSolverPathFails) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\nauto t = std::chrono::steady_clock::now();\n"));
  EXPECT_TRUE(has_rule(findings, "determinism"));
}

TEST(Determinism, StdRandInMsgPathFails) {
  const auto findings = analyze_files(input_of(
      "src/msg/src/x.cpp", "int r = std::rand();\n"));
  EXPECT_TRUE(has_rule(findings, "determinism"));
}

TEST(Determinism, SupportTimerIsOutOfScope) {
  const auto findings = analyze_files(input_of(
      "src/support/include/retra/support/timer.hpp",
      "#pragma once\nusing Clock = std::chrono::steady_clock;\n"));
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

TEST(Determinism, MentionInCommentOrStringIsIgnored) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp",
      "// steady_clock would break determinism\n"
      "const char* s = \"rand\";\n"));
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

TEST(Determinism, SeededXoshiroPasses) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp", "support::Xoshiro256 rng(42);\n"));
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

// Regression: the pre-tokenizer stripper tracked quotes character by
// character, so the inner `"` of a raw string ended its string state
// early and banned words inside the literal leaked into the token scan.
TEST(Determinism, RawStringContentsAreIgnored) {
  // The banned words sit after an embedded quote, exactly where the old
  // stripper had already (wrongly) left its string state.
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp",
      "const char* s = R\"(say \" then rand and mt19937 loudly)\";\n"
      "int y = 0;\n"));
  EXPECT_FALSE(has_rule(findings, "determinism"));
}

// Regression: a digit separator used to be read as the start of a char
// literal, swallowing the code after it (hiding real findings) or
// un-hiding literal text (creating false ones).
TEST(Determinism, DigitSeparatorDoesNotDesyncStripping) {
  const auto no_fp = analyze_files(input_of(
      "src/para/src/x.cpp", "int n = 1'000'000;\nconst char* s = \"rand\";\n"));
  EXPECT_FALSE(has_rule(no_fp, "determinism"));

  const auto real = analyze_files(input_of(
      "src/para/src/x.cpp", "int n = 1'000'000;\nint r = std::rand();\n"));
  EXPECT_TRUE(has_rule(real, "determinism"));
}

// ------------------------------------------------------------------
// raw-alloc

TEST(RawAlloc, NewUnderSrcFails) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "int* p = new int(3);\n"));
  EXPECT_TRUE(has_rule(findings, "raw-alloc"));
}

TEST(RawAlloc, DeleteUnderSrcFails) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "delete p;\n"));
  EXPECT_TRUE(has_rule(findings, "raw-alloc"));
}

TEST(RawAlloc, MakeUniquePasses) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "auto p = std::make_unique<int>(3);\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

TEST(RawAlloc, DeletedMemberIsNotAnAllocation) {
  const auto findings = analyze_files(input_of(
      "src/db/include/retra/db/x.hpp",
      "#pragma once\nstruct X {\n  X(const X&) = delete;\n};\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

TEST(RawAlloc, OperatorNewDefinitionIsNotAnAllocation) {
  const auto findings = analyze_files(input_of(
      "src/support/src/alloc.cpp", "void* operator new(std::size_t n);\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

TEST(RawAlloc, OutsideSrcIsOutOfScope) {
  const auto findings = analyze_files(input_of(
      "tests/x.cpp", "int* p = new int(3);\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

// ------------------------------------------------------------------
// wire-format

constexpr const char* kGoodWireStruct =
    "#pragma once\n"
    "struct GoodRecord {\n"
    "  std::uint64_t target = 0;\n"
    "  std::int16_t value = 0;\n"
    "  static constexpr std::size_t kWireSize = 8 + 2;\n"
    "};\n"
    "static_assert(std::is_trivially_copyable_v<GoodRecord>);\n";

TEST(WireFormat, CoveredFixedWidthStructPasses) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp", kGoodWireStruct));
  EXPECT_FALSE(has_rule(findings, "wire-format"));
}

TEST(WireFormat, MissingTriviallyCopyableAssertFails) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\n"
      "struct BadRecord {\n"
      "  std::uint64_t target = 0;\n"
      "  static constexpr std::size_t kWireSize = 8;\n"
      "};\n"));
  ASSERT_TRUE(has_rule(findings, "wire-format"));
}

TEST(WireFormat, NonFixedWidthFieldFails) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\n"
      "struct BadRecord {\n"
      "  int target = 0;\n"
      "  static constexpr std::size_t kWireSize = 4;\n"
      "};\n"
      "static_assert(std::is_trivially_copyable_v<BadRecord>);\n"));
  EXPECT_EQ(count_rule(findings, "wire-format"), 1);
}

TEST(WireFormat, StructWithoutWireSizeIsNotAWireStruct) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\n"
      "struct Stats {\n"
      "  int anything = 0;\n"
      "};\n"));
  EXPECT_FALSE(has_rule(findings, "wire-format"));
}

TEST(WireFormat, MethodBodiesAreNotFields) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\n"
      "struct GoodRecord {\n"
      "  std::uint64_t target = 0;\n"
      "  static constexpr std::size_t kWireSize = 8;\n"
      "  static GoodRecord decode(Reader& r) {\n"
      "    GoodRecord rec;\n"
      "    rec.target = r.u64();\n"
      "    return rec;\n"
      "  }\n"
      "};\n"
      "static_assert(std::is_trivially_copyable_v<GoodRecord>);\n"));
  EXPECT_FALSE(has_rule(findings, "wire-format"));
}

// ------------------------------------------------------------------
// db-level-residency

TEST(DbLevelResidency, DatabaseLevelCallInEngineCodeFails) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp", "auto& v = database.level(3);\n"));
  EXPECT_TRUE(has_rule(findings, "db-level-residency"));
}

TEST(DbLevelResidency, PointerReceiverAndQualifiedNameFail) {
  EXPECT_TRUE(has_rule(
      analyze_files(input_of(
          "src/para/include/retra/para/x.hpp",
          "#pragma once\nauto& v = lower_db->level(n);\n")),
      "db-level-residency"));
  EXPECT_TRUE(has_rule(
      analyze_files(input_of(
          "src/para/src/x.cpp", "using db::Database::level;\n")),
      "db-level-residency"));
}

TEST(DbLevelResidency, GameFamilyLevelAccessorPasses) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp", "decltype(auto) game = family.level(n);\n"));
  EXPECT_FALSE(has_rule(findings, "db-level-residency"));
}

TEST(DbLevelResidency, OutsideEngineCodeIsOutOfScope) {
  const auto findings = analyze_files(input_of(
      "src/serve/src/x.cpp", "auto& v = database.level(3);\n"));
  EXPECT_FALSE(has_rule(findings, "db-level-residency"));
}

TEST(DbLevelResidency, MentionInCommentIsIgnored) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp", "// database.level(3) would bypass the store\n"));
  EXPECT_FALSE(has_rule(findings, "db-level-residency"));
}

// ------------------------------------------------------------------
// simd-containment

TEST(SimdContainment, IntrinsicCallOutsideExecFails) {
  const auto findings = analyze_files(input_of(
      "src/para/src/x.cpp",
      "__m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));\n"));
  EXPECT_TRUE(has_rule(findings, "simd-containment"));
}

TEST(SimdContainment, BuiltinIa32OutsideExecFails) {
  const auto findings = analyze_files(input_of(
      "src/msg/src/x.cpp", "__builtin_ia32_pause();\n"));
  EXPECT_TRUE(has_rule(findings, "simd-containment"));
}

TEST(SimdContainment, IntrinsicsHeaderOutsideExecFails) {
  EXPECT_TRUE(has_rule(
      analyze_files(input_of("src/db/src/x.cpp", "#include <immintrin.h>\n")),
      "simd-containment"));
  EXPECT_TRUE(has_rule(
      analyze_files(input_of("bench/bench_x.cpp", "#include <emmintrin.h>\n")),
      "simd-containment"));
  EXPECT_TRUE(has_rule(
      analyze_files(input_of("tools/x/main.cpp", "#include <arm_neon.h>\n")),
      "simd-containment"));
}

TEST(SimdContainment, InsideExecIsOutOfScope) {
  const auto findings = analyze_files(input_of(
      "src/exec/src/simd.cpp",
      "#include <immintrin.h>\n__m256i v = _mm256_set1_epi16(3);\n"));
  EXPECT_FALSE(has_rule(findings, "simd-containment"));
}

TEST(SimdContainment, WrapperCallsAndMentionsInCommentsPass) {
  const auto findings = analyze_files(input_of(
      "src/para/include/retra/para/x.hpp",
      "#pragma once\n"
      "#include \"retra/exec/simd.hpp\"\n"
      "// _mm256_blendv_epi8 would be banned here\n"
      "auto n = retra::exec::simd::replace_matching(p, len, m, r);\n"));
  EXPECT_FALSE(has_rule(findings, "simd-containment"));
}

TEST(SimdContainment, AllowDirectiveSuppresses) {
  const auto findings = analyze_files(input_of(
      "src/support/src/x.cpp",
      "// retra-analyze: allow(simd-containment)\n__builtin_ia32_pause();\n"));
  EXPECT_FALSE(has_rule(findings, "simd-containment"));
}

// ------------------------------------------------------------------
// allow-comment escape

TEST(AllowDirective, SameLineSuppresses) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp",
      "int* p = new int(3);  // retra-analyze: allow(raw-alloc)\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

TEST(AllowDirective, PreviousLineSuppresses) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp",
      "// retra-analyze: allow(raw-alloc)\nint* p = new int(3);\n"));
  EXPECT_FALSE(has_rule(findings, "raw-alloc"));
}

TEST(AllowDirective, OnlySuppressesTheNamedRule) {
  const auto findings = analyze_files(input_of(
      "src/msg/src/x.cpp",
      "// retra-analyze: allow(raw-alloc)\nint r = std::rand();\n"));
  EXPECT_TRUE(has_rule(findings, "determinism"));
}

// ------------------------------------------------------------------
// finding metadata

TEST(Findings, CarryFileLineAndRule) {
  const auto findings = analyze_files(input_of(
      "src/db/src/x.cpp", "int a;\nint* p = new int(3);\n"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/db/src/x.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "raw-alloc");
}

// Scoping keys off the repo-relative module, not a `src/` substring: a
// directory named src below examples/ is still examples code.
TEST(Findings, ScopeIsTheTopLevelDirectory) {
  const auto findings = analyze_files(input_of(
      "examples/src/x.cpp", "#include \"x.hpp\"\nint* p = new int;\n"));
  EXPECT_FALSE(has_rule(findings, "include-hygiene")) << messages(findings);
  EXPECT_FALSE(has_rule(findings, "raw-alloc")) << messages(findings);
}

// ------------------------------------------------------------------
// lock-coverage

TEST(LockCoverage, UnannotatedMemberOfMutexClassFails) {
  const auto findings = analyze_locks(input_of("src/exec/pool.hpp",
                                               R"(#pragma once
#include "retra/support/sync.hpp"
class Pool {
 private:
  support::Mutex mutex_;
  int jobs_ = 0;
};
)"));
  ASSERT_EQ(count_rule(findings, "lock-coverage"), 1) << messages(findings);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("jobs_"), std::string::npos);
}

TEST(LockCoverage, AnnotatedMembersPass) {
  const auto findings = analyze_locks(input_of("src/exec/pool.hpp",
                                               R"(#pragma once
class Pool {
  support::Mutex mutex_;
  int jobs_ RETRA_GUARDED_BY(mutex_) = 0;
  Node* head_ RETRA_PT_GUARDED_BY(mutex_) = nullptr;
  int epoch_ RETRA_NOT_GUARDED = 0;
};
)"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, AtomicAndConstMembersAreExempt) {
  const auto findings = analyze_locks(input_of("src/exec/pool.hpp",
                                               R"(class Pool {
  support::Mutex mutex_;
  std::atomic<bool> stop_{false};
  const int limit_ = 8;
  support::CondVar cv_;
};
)"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, ClassWithoutMutexIsNotEnforced) {
  const auto findings = analyze_locks(
      input_of("src/exec/pool.hpp", "class Plain { int a; int b; };\n"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, StdMutexTypeOutsideSupportFails) {
  const auto findings = analyze_locks(input_of(
      "src/net/cache.hpp", "class C { std::mutex mu_; };\n"));
  ASSERT_EQ(count_rule(findings, "lock-coverage"), 1) << messages(findings);
  EXPECT_NE(findings[0].message.find("support::Mutex"), std::string::npos);
}

TEST(LockCoverage, StdMutexInsideSupportIsTheWrapper) {
  const auto findings = analyze_locks(
      input_of("src/support/include/retra/support/sync.hpp",
               "class Mutex { std::mutex m_; };\n"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, NonSrcFilesAreNotEnforced) {
  const auto findings = analyze_locks(input_of(
      "tests/test_x.cpp", "class C { std::mutex mu_; int n_; };\n"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, AllowDirectiveSuppresses) {
  const auto findings = analyze_locks(input_of("src/exec/pool.hpp",
                                               R"(class Pool {
  support::Mutex mutex_;
  // retra-analyze: allow(lock-coverage)
  int jobs_ = 0;
};
)"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

TEST(LockCoverage, MemberFunctionsAndStaticsIgnored) {
  const auto findings = analyze_locks(input_of("src/exec/pool.hpp",
                                               R"(class Pool {
 public:
  Pool() : jobs_(0) {}
  void run(int n) { jobs_ += n; }
  int jobs() const RETRA_EXCLUDES(mutex_) { return jobs_; }
  static constexpr int kMax = 8;
  using Clock = int;

 private:
  support::Mutex mutex_;
  int jobs_ RETRA_GUARDED_BY(mutex_);
};
)"));
  EXPECT_FALSE(has_rule(findings, "lock-coverage")) << messages(findings);
}

// ------------------------------------------------------------------
// io-blocking

TEST(IoBlocking, BlockingCallInMarkedBodyFails) {
  const auto findings = analyze_locks(input_of("src/net/srv.cpp",
                                               R"(void io_loop() RETRA_IO_THREAD_ONLY {
  usleep(100);
}
)"));
  ASSERT_EQ(count_rule(findings, "io-blocking"), 1) << messages(findings);
  EXPECT_NE(findings[0].message.find("usleep"), std::string::npos);
}

TEST(IoBlocking, NonBlockingCallsPass) {
  const auto findings = analyze_locks(input_of("src/net/srv.cpp",
                                               R"(void io_loop() RETRA_IO_THREAD_ONLY {
  epoll_wait(fd, events, 64, -1);
  accept4(fd, nullptr, nullptr, 0);
  cv.notify_one();
}
)"));
  EXPECT_FALSE(has_rule(findings, "io-blocking")) << messages(findings);
}

TEST(IoBlocking, UnmarkedFunctionsAreNotChecked) {
  const auto findings = analyze_locks(
      input_of("src/net/srv.cpp", "void worker() { queue_cv.wait(m); }\n"));
  EXPECT_FALSE(has_rule(findings, "io-blocking")) << messages(findings);
}

TEST(IoBlocking, AllowDirectiveSuppresses) {
  const auto findings = analyze_locks(input_of("src/net/srv.cpp",
                                               R"(void io_loop() RETRA_IO_THREAD_ONLY {
  // retra-analyze: allow(io-blocking)
  poll(fds, n, timeout);
}
)"));
  EXPECT_FALSE(has_rule(findings, "io-blocking")) << messages(findings);
}

// ------------------------------------------------------------------
// layer-order / include-cycle

TEST(LayerOrder, DownwardIncludePasses) {
  const auto findings = analyze_layering(input_of(
      "src/net/src/server.cpp", "#include \"retra/support/sync.hpp\"\n"));
  EXPECT_FALSE(has_rule(findings, "layer-order")) << messages(findings);
}

TEST(LayerOrder, BackEdgeFails) {
  const auto findings = analyze_layering(input_of(
      "src/support/src/sync.cpp", "#include \"retra/net/server.hpp\"\n"));
  ASSERT_EQ(count_rule(findings, "layer-order"), 1) << messages(findings);
  EXPECT_NE(findings[0].message.find("back-edge"), std::string::npos);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LayerOrder, SameLayerCrossModuleFails) {
  const auto findings = analyze_layering(input_of(
      "src/obs/src/metrics.cpp", "#include \"retra/exec/worker_pool.hpp\"\n"));
  ASSERT_EQ(count_rule(findings, "layer-order"), 1) << messages(findings);
  EXPECT_NE(findings[0].message.find("same-layer"), std::string::npos);
}

TEST(LayerOrder, ToolsMayIncludeAnything) {
  const auto findings = analyze_layering(input_of(
      "tools/retra_server/main.cpp", "#include \"retra/net/server.hpp\"\n"));
  EXPECT_FALSE(has_rule(findings, "layer-order")) << messages(findings);
}

TEST(LayerOrder, AllowDirectiveSuppresses) {
  const auto findings = analyze_layering(
      input_of("src/support/src/sync.cpp",
               "// retra-analyze: allow(layer-order)\n"
               "#include \"retra/net/server.hpp\"\n"));
  EXPECT_FALSE(has_rule(findings, "layer-order")) << messages(findings);
}

TEST(IncludeCycle, TwoHeaderCycleIsReported) {
  AnalysisInput input;
  input.files.push_back({"src/net/include/retra/net/a.hpp",
                         "#pragma once\n#include \"retra/net/b.hpp\"\n"});
  input.files.push_back({"src/net/include/retra/net/b.hpp",
                         "#pragma once\n#include \"retra/net/a.hpp\"\n"});
  const auto findings = analyze_layering(input);
  ASSERT_GE(count_rule(findings, "include-cycle"), 1) << messages(findings);
  bool described = false;
  for (const Finding& f : findings) {
    if (f.rule == "include-cycle" &&
        f.message.find("retra/net/a.hpp") != std::string::npos &&
        f.message.find("retra/net/b.hpp") != std::string::npos) {
      described = true;
    }
  }
  EXPECT_TRUE(described) << messages(findings);
}

TEST(IncludeCycle, AcyclicChainPasses) {
  AnalysisInput input;
  input.files.push_back({"src/net/include/retra/net/a.hpp",
                         "#pragma once\n#include \"retra/net/b.hpp\"\n"});
  input.files.push_back({"src/net/include/retra/net/b.hpp", "#pragma once\n"});
  EXPECT_FALSE(has_rule(analyze_layering(input), "include-cycle"));
}

// ------------------------------------------------------------------
// protocol-doc / metrics-doc

// A miniature protocol.hpp the parser understands, structurally
// identical to the real one.
constexpr const char* kMiniProtocol = R"(#pragma once
inline constexpr std::uint32_t kMagic = 0x314E5452u;
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr std::uint32_t kMaxBatchLookups = 1u << 16;
enum class Op : std::uint8_t {
  kPing = 1,
  kPong = 65,
};
enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kMalformed = 1,
  kBadMagic = 2,
};
struct FrameHeader {
  static constexpr std::size_t kWireSize = 4 + 1 + 1 + 2 + 4 + 4;
};
struct StatsReply {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::vector<std::uint64_t> level_sizes;
  static constexpr std::size_t kCounterCount = 2;
};
)";

constexpr const char* kMiniProtocolDoc = R"(# protocol
Every frame is a fixed 16-byte header.  Magic is `0x314E5452`.
Payloads are at most 1 MiB; a batch carries at most **65536** lookups.

## Ops

| Op | Value | Direction | Payload |
|---|---|---|---|
| PING | 1 | request | empty |
| PONG | 65 | response | empty |

### STATS

The reply payload is 2 u64 counters:

| Field | Meaning |
|---|---|
| `connections` | connections accepted |
| `requests` | requests admitted |

### ERROR

| Code | Name | Meaning |
|---|---|---|
| 1 | `malformed` | bad payload |
| 2 | `bad-magic` | bad magic |
)";

AnalysisInput spec_input(std::string hpp, std::string doc) {
  AnalysisInput input;
  input.files.push_back(
      {"src/net/include/retra/net/protocol.hpp", std::move(hpp)});
  input.protocol_doc = std::move(doc);
  // Keep the metrics half quiet: a minimal consistent pair.
  input.files.push_back({"src/obs/include/retra/obs/metrics.hpp",
                         "inline constexpr std::array<Desc, 1> kCatalog = {{\n"
                         "    {\"a.b\", Kind::kCounter, \"u\", \"c\", \"-\",\n"
                         "     \"help\"},\n"
                         "}};\n"});
  input.metrics_doc =
      "## Metric catalog\n\n"
      "| Metric | Kind | Unit | Component | Paper table | Meaning |\n"
      "|---|---|---|---|---|---|\n"
      "| `a.b` | counter | u | c | - | help |\n";
  return input;
}

TEST(ProtocolDoc, ConsistentPairPasses) {
  const auto findings =
      analyze_spec(spec_input(kMiniProtocol, kMiniProtocolDoc));
  EXPECT_TRUE(findings.empty()) << messages(findings);
}

TEST(ProtocolDoc, ValueDriftIsCaught) {
  std::string doc = kMiniProtocolDoc;
  doc.replace(doc.find("| PING | 1 |"), 12, "| PING | 9 |");
  const auto findings = analyze_spec(spec_input(kMiniProtocol, doc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
}

TEST(ProtocolDoc, UndocumentedOpIsCaught) {
  std::string hpp = kMiniProtocol;
  hpp.replace(hpp.find("kPong = 65,"), 11, "kPong = 65,\n  kValue = 66,");
  const auto findings = analyze_spec(spec_input(std::move(hpp),
                                                kMiniProtocolDoc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
  bool names_value = false;
  for (const Finding& f : findings) {
    if (f.message.find("VALUE") != std::string::npos) names_value = true;
  }
  EXPECT_TRUE(names_value) << messages(findings);
}

TEST(ProtocolDoc, StaleDocOpIsCaught) {
  std::string doc = kMiniProtocolDoc;
  doc.insert(doc.find("| PONG"), "| QUERY | 2 | request | gone |\n");
  const auto findings = analyze_spec(spec_input(kMiniProtocol, doc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
}

TEST(ProtocolDoc, ErrorNameDriftIsCaught) {
  std::string doc = kMiniProtocolDoc;
  doc.replace(doc.find("`bad-magic`"), 11, "`wrong-magic`");
  const auto findings = analyze_spec(spec_input(kMiniProtocol, doc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
}

TEST(ProtocolDoc, StatsFieldOrderDriftIsCaught) {
  std::string doc = kMiniProtocolDoc;
  doc.replace(doc.find("| `connections` | connections accepted |"), 40,
              "| `requests` | requests admitted |\n| `connections` | x |");
  const auto findings = analyze_spec(spec_input(kMiniProtocol, doc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
}

TEST(ProtocolDoc, CounterCountDriftIsCaught) {
  std::string hpp = kMiniProtocol;
  hpp.replace(hpp.find("kCounterCount = 2"), 17, "kCounterCount = 3");
  const auto findings =
      analyze_spec(spec_input(std::move(hpp), kMiniProtocolDoc));
  ASSERT_TRUE(has_rule(findings, "protocol-doc")) << messages(findings);
}

TEST(MetricsDoc, KindDriftIsCaught) {
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  const std::size_t pos = input.metrics_doc.find("counter");
  input.metrics_doc.replace(pos, 7, "gauge");
  const auto findings = analyze_spec(input);
  ASSERT_TRUE(has_rule(findings, "metrics-doc")) << messages(findings);
}

TEST(MetricsDoc, UndocumentedMetricIsCaught) {
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  input.metrics_doc = "## Metric catalog\n\n| Metric | Kind |\n|---|---|\n";
  const auto findings = analyze_spec(input);
  ASSERT_TRUE(has_rule(findings, "metrics-doc")) << messages(findings);
}

TEST(MetricsDoc, StaleDocMetricIsCaught) {
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  input.metrics_doc += "| `gone.metric` | counter | u | c | - | stale |\n";
  const auto findings = analyze_spec(input);
  ASSERT_TRUE(has_rule(findings, "metrics-doc")) << messages(findings);
}

// ------------------------------------------------------------------
// format-doc

// A miniature db/format.hpp the parser understands, structurally
// identical to the real one.
constexpr const char* kMiniFormat = R"(#pragma once
inline constexpr std::string_view kMagic01 = "RTRADB01";
inline constexpr std::string_view kMagic03 = "RTRADB03";
inline constexpr std::size_t kMagicBytes = 8;
inline constexpr std::uint32_t kMaxLevels = 4096;
inline constexpr std::uint64_t kMaxLevelSize = 1ull << 40;
inline constexpr std::uint32_t kDefaultBlockPositions = 4096;
inline constexpr std::uint32_t kMaxBlockPositions = 65536;
inline constexpr std::uint32_t kMaxLevelBlocks = 1u << 20;
enum class BlockScheme : std::uint8_t {
  kRaw = 0,
  kRle = 1,
  kFreq = 2,
};
inline constexpr std::uint8_t kBlockSchemeCount = 3;
inline constexpr std::uint32_t kFreqMaxSymbols = 256;
inline constexpr std::uint32_t kFreqMaxCodeBits = 32;
)";

constexpr const char* kMiniFormatDoc = R"(# formats
Every file starts with an 8-byte magic.  Readers accept
at most 4096 levels per file and at most 2^40 positions per level.

## Version negotiation

| magic | version | writer |
|---|---|---|
| `RTRADB01` | 1 | save |
| `RTRADB03` | 3 | compress |

A block holds at most 65536 positions per block (default **4096**) and
a level holds at most 2^20 blocks.  Frequency tables hold
at most 256 distinct symbols with code lengths in 1..32.

## Block schemes

| tag | scheme |
|---|---|
| 0 | `raw` |
| 1 | `rle` |
| 2 | `freq` |
)";

AnalysisInput format_input(std::string hpp, std::string doc) {
  // The protocol/metrics pair is consistent, so only format-doc speaks.
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  input.files.push_back(
      {"src/db/include/retra/db/format.hpp", std::move(hpp)});
  input.format_doc = std::move(doc);
  return input;
}

TEST(FormatDoc, ConsistentPairPasses) {
  const auto findings =
      analyze_spec(format_input(kMiniFormat, kMiniFormatDoc));
  EXPECT_TRUE(findings.empty()) << messages(findings);
}

TEST(FormatDoc, QuietWhenBothSidesAbsent) {
  // Fixtures without the database layer have nothing to check — the
  // protocol/metrics fixtures above stay clean through analyze_spec.
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  input.files.push_back({"src/support/timer.hpp", "struct T {};\n"});
  EXPECT_TRUE(analyze_spec(input).empty());
}

TEST(FormatDoc, MissingDocIsCaught) {
  AnalysisInput input = format_input(kMiniFormat, "");
  const auto findings = analyze_spec(input);
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, LimitDriftIsCaught) {
  std::string hpp = kMiniFormat;
  hpp.replace(hpp.find("kMaxLevels = 4096"), 17, "kMaxLevels = 2048");
  const auto findings =
      analyze_spec(format_input(std::move(hpp), kMiniFormatDoc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
  bool names_ceiling = false;
  for (const Finding& f : findings) {
    if (f.message.find("level-count ceiling") != std::string::npos) {
      names_ceiling = true;
    }
  }
  EXPECT_TRUE(names_ceiling) << messages(findings);
}

TEST(FormatDoc, UndocumentedMagicIsCaught) {
  std::string doc = kMiniFormatDoc;
  doc.erase(doc.find("| `RTRADB03` | 3 | compress |\n"), 30);
  const auto findings = analyze_spec(format_input(kMiniFormat, doc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, VersionNumberDriftIsCaught) {
  std::string doc = kMiniFormatDoc;
  doc.replace(doc.find("| `RTRADB03` | 3 |"), 18, "| `RTRADB03` | 2 |");
  const auto findings = analyze_spec(format_input(kMiniFormat, doc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, StaleDocMagicIsCaught) {
  std::string doc = kMiniFormatDoc;
  doc.insert(doc.find("| `RTRADB03`"), "| `RTRADB04` | 4 | future |\n");
  const auto findings = analyze_spec(format_input(kMiniFormat, doc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, SchemeNameDriftIsCaught) {
  std::string doc = kMiniFormatDoc;
  doc.replace(doc.find("| 1 | `rle` |"), 13, "| 1 | `runlen` |");
  const auto findings = analyze_spec(format_input(kMiniFormat, doc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, StaleSchemeRowIsCaught) {
  std::string doc = kMiniFormatDoc;
  doc += "| 3 | `lz` |\n";
  const auto findings = analyze_spec(format_input(kMiniFormat, doc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

TEST(FormatDoc, SchemeCountDriftIsCaught) {
  std::string hpp = kMiniFormat;
  hpp.replace(hpp.find("kBlockSchemeCount = 3"), 21,
              "kBlockSchemeCount = 4");
  const auto findings =
      analyze_spec(format_input(std::move(hpp), kMiniFormatDoc));
  ASSERT_TRUE(has_rule(findings, "format-doc")) << messages(findings);
}

// ------------------------------------------------------------------
// analyze_all ordering

TEST(AnalyzeAll, FindingsAreSortedByFileAndLine) {
  AnalysisInput input = spec_input(kMiniProtocol, kMiniProtocolDoc);
  input.files.push_back({"src/support/src/bad.cpp",
                         "#include \"retra/net/server.hpp\"\n"});
  input.files.push_back(
      {"src/exec/pool.hpp",
       "class P { support::Mutex m_; int a_; int b_; };\n"});
  const auto findings = analyze_all(input);
  ASSERT_GE(findings.size(), 3u) << messages(findings);
  const bool sorted = std::is_sorted(
      findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
        return a.file != b.file ? a.file < b.file : a.line < b.line;
      });
  EXPECT_TRUE(sorted) << messages(findings);
}

}  // namespace
}  // namespace retra::analyze
