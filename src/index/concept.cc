#include "index/concept.h"

#include <algorithm>

namespace classminer::index {
namespace {

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

}  // namespace

ConceptHierarchy::ConceptHierarchy() {
  ConceptNode root;
  root.id = 0;
  root.name = "root";
  root.level = ConceptLevel::kRoot;
  nodes_.push_back(root);
}

int ConceptHierarchy::AddChild(int parent, const std::string& name,
                               int security_level) {
  ConceptNode node;
  node.id = static_cast<int>(nodes_.size());
  node.name = name;
  node.parent = parent;
  node.security_level = security_level;
  const ConceptLevel pl = nodes_[static_cast<size_t>(parent)].level;
  node.level = pl == ConceptLevel::kScene
                   ? ConceptLevel::kScene
                   : static_cast<ConceptLevel>(static_cast<int>(pl) + 1);
  nodes_[static_cast<size_t>(parent)].children.push_back(node.id);
  nodes_.push_back(node);
  return node.id;
}

ConceptHierarchy ConceptHierarchy::MedicalDefault() {
  ConceptHierarchy h;
  const int health = h.AddChild(0, "health_care");
  const int education = h.AddChild(0, "medical_education");
  const int report = h.AddChild(0, "medical_report");

  const int medicine = h.AddChild(education, "medicine");
  h.AddChild(education, "nursing");
  h.AddChild(education, "dentistry");

  h.AddChild(medicine, "presentation");
  h.AddChild(medicine, "dialog");
  // Clinical footage is the most sensitive content: higher default level.
  h.AddChild(medicine, "clinical_operation", /*security_level=*/2);
  h.AddChild(medicine, "other");

  (void)health;
  (void)report;
  return h;
}

util::StatusOr<ConceptHierarchy> ConceptHierarchy::FromSpec(
    const std::vector<std::string>& lines) {
  ConceptHierarchy h;
  for (const std::string& raw : lines) {
    if (raw.empty() || raw[0] == '#') continue;
    std::string path = raw;
    int security = 0;
    const size_t colon = raw.rfind(':');
    if (colon != std::string::npos) {
      path = raw.substr(0, colon);
      try {
        security = std::stoi(raw.substr(colon + 1));
      } catch (...) {
        return util::Status::InvalidArgument("bad security level in: " + raw);
      }
    }
    const std::vector<std::string> parts = SplitPath(path);
    if (parts.empty()) {
      return util::Status::InvalidArgument("empty concept path: " + raw);
    }
    int cur = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      int next = -1;
      for (int child : h.nodes_[static_cast<size_t>(cur)].children) {
        if (h.nodes_[static_cast<size_t>(child)].name == parts[i]) {
          next = child;
          break;
        }
      }
      if (next < 0) next = h.AddChild(cur, parts[i]);
      cur = next;
    }
    h.nodes_[static_cast<size_t>(cur)].security_level = security;
  }
  return h;
}

int ConceptHierarchy::FindByPath(const std::string& path) const {
  int cur = 0;
  for (const std::string& part : SplitPath(path)) {
    int next = -1;
    for (int child : nodes_[static_cast<size_t>(cur)].children) {
      if (nodes_[static_cast<size_t>(child)].name == part) {
        next = child;
        break;
      }
    }
    if (next < 0) return -1;
    cur = next;
  }
  return cur;
}

int ConceptHierarchy::FindByName(const std::string& name) const {
  for (const ConceptNode& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return -1;
}

bool ConceptHierarchy::IsAncestor(int ancestor, int descendant) const {
  int cur = descendant;
  while (cur >= 0) {
    if (cur == ancestor) return true;
    cur = nodes_[static_cast<size_t>(cur)].parent;
  }
  return false;
}

std::string ConceptHierarchy::PathOf(int id) const {
  if (id <= 0) return "";
  std::vector<const std::string*> parts;
  int cur = id;
  while (cur > 0) {
    parts.push_back(&nodes_[static_cast<size_t>(cur)].name);
    cur = nodes_[static_cast<size_t>(cur)].parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += **it;
  }
  return out;
}

int ConceptHierarchy::SceneNodeForEvent(events::EventType type) const {
  switch (type) {
    case events::EventType::kPresentation:
      return FindByName("presentation");
    case events::EventType::kDialog:
      return FindByName("dialog");
    case events::EventType::kClinicalOperation:
      return FindByName("clinical_operation");
    case events::EventType::kUndetermined:
      return FindByName("other");
  }
  return -1;
}

}  // namespace classminer::index
