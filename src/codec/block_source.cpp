#include "codec/block_source.hpp"

#include <algorithm>
#include <stdexcept>

namespace icd::codec {

BlockSource::BlockSource(std::span<const std::uint8_t> content,
                         std::size_t block_size)
    : block_size_(block_size), content_size_(content.size()) {
  if (block_size == 0) {
    throw std::invalid_argument("BlockSource: block_size must be > 0");
  }
  const std::size_t count =
      std::max<std::size_t>(1, (content.size() + block_size - 1) / block_size);
  blocks_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> block(block_size, 0);
    const std::size_t offset = i * block_size;
    if (offset < content.size()) {
      const std::size_t len = std::min(block_size, content.size() - offset);
      std::copy_n(content.begin() + offset, len, block.begin());
    }
    blocks_.push_back(std::move(block));
  }
}

std::vector<std::uint8_t> BlockSource::restore(
    const std::vector<std::vector<std::uint8_t>>& blocks,
    std::size_t content_size) {
  std::vector<std::uint8_t> content;
  content.reserve(content_size);
  for (const auto& block : blocks) {
    const std::size_t take =
        std::min(block.size(), content_size - content.size());
    content.insert(content.end(), block.begin(),
                   block.begin() + static_cast<std::ptrdiff_t>(take));
    if (content.size() == content_size) return content;
  }
  if (content.size() != content_size) {
    throw std::invalid_argument("BlockSource::restore: not enough blocks");
  }
  return content;
}

}  // namespace icd::codec
