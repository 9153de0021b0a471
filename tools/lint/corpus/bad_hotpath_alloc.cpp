// Corpus: heap allocation inside scheduler hot-path functions. The
// lock-free decision path budget is zero allocations per call; every
// construct below either calls the allocator directly or constructs a
// container that will.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

struct Rank {
  int server = 0;
};

struct Scratch {
  std::vector<Rank> ranks;  // member scratch: fine, sized once
};

struct Ranker {
  Scratch scratch_;

  // Named hot-path function (HOT_PATH_FUNCTIONS).
  int device_hop_latency(int device) {
    std::vector<Rank> local;  // expect(hotpath-alloc)
    auto owned = std::make_unique<Rank>();  // expect(hotpath-alloc)
    Rank* raw = new Rank{};  // expect(hotpath-alloc)
    void* c = std::malloc(64);  // expect(hotpath-alloc)
    std::string label = "srv";  // expect(hotpath-alloc)
    std::free(c);
    delete raw;
    (void)owned;
    (void)label;
    return device + static_cast<int>(local.size());
  }

  // Marked hot via annotation rather than the built-in name set.
  // intsched-lint: hot-path
  int rescore(int device) {
    std::vector<int> tmp;  // expect(hotpath-alloc)
    tmp.push_back(device);
    return tmp.back();
  }
};
