// A run's named metrics, in the order they are reported.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using MetricList = std::vector<Metric>;

}  // namespace perfbench
