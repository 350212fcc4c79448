#ifndef CLASSMINER_INDEX_CONCEPT_H_
#define CLASSMINER_INDEX_CONCEPT_H_

#include <string>
#include <vector>

#include "events/event_miner.h"
#include "util/status.h"

namespace classminer::index {

// Levels of the database model (paper Figs. 1-2).
enum class ConceptLevel {
  kRoot = 0,
  kCluster,     // e.g. "medical_education"
  kSubcluster,  // e.g. "medicine"
  kScene,       // e.g. "presentation"
};

struct ConceptNode {
  int id = 0;
  std::string name;
  ConceptLevel level = ConceptLevel::kRoot;
  int parent = -1;
  std::vector<int> children;
  // Multilevel security: a user needs clearance >= this to access content
  // indexed under the node (Sec. 2, access control feature).
  int security_level = 0;
};

// The concept hierarchy of video content: a tree of semantic nodes provided
// by domain experts (or WordNet in the paper; here a built-in medical tree
// plus a text loader).
class ConceptHierarchy {
 public:
  ConceptHierarchy();  // root only

  // The medical-domain hierarchy of Fig. 2, with the three event scenes
  // under medicine.
  static ConceptHierarchy MedicalDefault();

  // Loads from lines of the form "path/to/node[:security]", e.g.
  //   "medical_education/medicine/presentation:2". Parents are created on
  // demand with security 0.
  static util::StatusOr<ConceptHierarchy> FromSpec(
      const std::vector<std::string>& lines);

  int root() const { return 0; }
  const ConceptNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  // Adds a child under `parent`; level is parent's level + 1 (capped at
  // kScene). Returns the new node id.
  int AddChild(int parent, const std::string& name, int security_level = 0);

  // Finds a node by slash-separated path from the root; -1 when absent.
  int FindByPath(const std::string& path) const;
  // First node with the given name anywhere in the tree; -1 when absent.
  int FindByName(const std::string& name) const;

  bool IsAncestor(int ancestor, int descendant) const;
  std::string PathOf(int id) const;

  // Scene-level concept node for a mined event type (medical default tree);
  // -1 for undetermined events.
  int SceneNodeForEvent(events::EventType type) const;

 private:
  std::vector<ConceptNode> nodes_;
};

}  // namespace classminer::index

#endif  // CLASSMINER_INDEX_CONCEPT_H_
